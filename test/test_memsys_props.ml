(* Property tests of the coherence engine: after any interleaving of reads
   and writes, the global MESI invariants must hold. *)

open Jord_arch

let small_machine () =
  Memsys.create (Topology.create (Config.with_cores Config.default 8))

type op = Read of int * int | Write of int * int

let gen_op =
  QCheck.Gen.(
    map2
      (fun w (core, line) ->
        let addr = 0x10000 + (line * 64) in
        if w then Write (core mod 8, addr) else Read (core mod 8, addr))
      bool
      (pair (int_bound 7) (int_bound 15)))

let arb_ops = QCheck.make ~print:(fun l -> string_of_int (List.length l))
    QCheck.Gen.(list_size (int_bound 300) gen_op)

let apply m = function
  | Read (core, addr) -> ignore (Memsys.read m ~core ~addr)
  | Write (core, addr) -> ignore (Memsys.write m ~core ~addr)

let lines = List.init 16 (fun i -> 0x10000 + (i * 64))

(* Single-writer invariant: at most one core holds a line writable, and if
   one does, it is the only sharer the directory tracks. *)
let prop_single_writer =
  QCheck.Test.make ~name:"MESI: single writer, no stale sharers" ~count:100 arb_ops
    (fun ops ->
      let m = small_machine () in
      List.iter (apply m) ops;
      List.for_all
        (fun addr ->
          let sharers = Jord_util.Bitset.to_list (Memsys.sharers m ~addr) in
          let writable = List.length sharers <= 1 in
          (* More than one sharer is fine only if no write has exclusive
             ownership; we detect it through a probe: a read from a sharer
             must be an L1 hit. *)
          ignore writable;
          List.for_all
            (fun core ->
              let lat = Memsys.read m ~core ~addr in
              lat <= 0.5 +. 1e-9)
            sharers)
        lines)

(* Read-your-writes at hit cost. *)
let prop_write_then_read_hits =
  QCheck.Test.make ~name:"write then read on same core is an L1 hit" ~count:100
    arb_ops
    (fun ops ->
      let m = small_machine () in
      List.iter (apply m) ops;
      List.for_all
        (fun addr ->
          ignore (Memsys.write m ~core:3 ~addr);
          Memsys.read m ~core:3 ~addr <= 0.5 +. 1e-9)
        lines)

(* The stats never go inconsistent: hits + misses equals total accesses. *)
let prop_stats_conserved =
  QCheck.Test.make ~name:"hit+miss count equals access count" ~count:100 arb_ops
    (fun ops ->
      let m = small_machine () in
      List.iter (apply m) ops;
      let s = Memsys.stats m in
      (* Upgrades are counted within hits-or-misses? They are a third
         category of access outcome: S-hit requiring ownership. *)
      s.Memsys.l1_hits + s.Memsys.l1_misses + s.Memsys.upgrades = List.length ops)

(* Directory invariants after random traffic on machines whose 512-byte,
   2-way L1s (8 lines) keep evicting the 32 lines in play. Core counts of
   2-8 plus one past 62, so a sharer set spans two bitset words. *)
type mop =
  | M_read of int * int
  | M_write of int * int
  | M_atomic of int * int
  | M_block of int * int * int

let tiny_l1_machine cores =
  let cfg = Config.with_cores Config.default cores in
  Memsys.create (Topology.create { cfg with Config.l1_size = 512; l1_ways = 2 })

let gen_machine_ops =
  QCheck.Gen.(
    let* cores = frequency [ (4, int_range 2 8); (1, return 70) ] in
    let op =
      let* kind = int_bound 3 and* core = int_bound (cores - 1) and* line = int_bound 31 in
      let addr = 0x20000 + (line * 64) in
      match kind with
      | 0 -> return (M_read (core, addr))
      | 1 -> return (M_write (core, addr))
      | 2 -> return (M_atomic (core, addr))
      | _ -> map (fun b -> M_block (core, addr, b)) (int_range 1 256)
    in
    pair (return cores) (list_size (int_bound 400) op))

let arb_machine_ops =
  QCheck.make
    ~print:(fun (cores, ops) -> Printf.sprintf "%d cores, %d ops" cores (List.length ops))
    gen_machine_ops

let prop_directory_invariants =
  QCheck.Test.make ~name:"coherence invariants hold after every access" ~count:150
    arb_machine_ops (fun (cores, ops) ->
      let m = tiny_l1_machine cores in
      List.for_all
        (fun op ->
          (match op with
          | M_read (core, addr) -> ignore (Memsys.read m ~core ~addr)
          | M_write (core, addr) -> ignore (Memsys.write m ~core ~addr)
          | M_atomic (core, addr) -> ignore (Memsys.atomic m ~core ~addr)
          | M_block (core, addr, bytes) -> ignore (Memsys.read_block m ~core ~addr ~bytes));
          match Memsys.check_invariants m with
          | [] -> true
          | errs -> QCheck.Test.fail_report (String.concat "; " errs))
        ops)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_directory_invariants;
    QCheck_alcotest.to_alcotest prop_single_writer;
    QCheck_alcotest.to_alcotest prop_write_then_read_hits;
    QCheck_alcotest.to_alcotest prop_stats_conserved;
  ]
