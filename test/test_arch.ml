open Jord_arch

let default_topo () = Topology.create Config.default

let test_config_scaling () =
  let c = Config.with_cores Config.default 64 in
  Alcotest.(check int) "cores" 64 c.Config.cores;
  Alcotest.(check bool) "mesh holds cores" true (c.Config.mesh_cols * c.Config.mesh_rows >= 64);
  let c2 = Config.with_sockets Config.default 2 in
  Alcotest.(check int) "sockets" 2 c2.Config.sockets;
  Alcotest.(check bool) "per-socket mesh holds half" true
    (c2.Config.mesh_cols * c2.Config.mesh_rows >= 16)

let test_instr_ns () =
  Alcotest.(check (float 1e-9)) "4 instr at IPC 4 = 1 cycle" 0.25
    (Config.instr_ns Config.default 4);
  Alcotest.(check bool) "fpga slower per instr" true
    (Config.instr_ns Config.fpga 100 > Config.instr_ns Config.default 100)

let test_hops () =
  let t = default_topo () in
  Alcotest.(check int) "self" 0 (Topology.hops t 0 0);
  Alcotest.(check int) "neighbor" 1 (Topology.hops t 0 1);
  (* Core 0 is tile (0,0); core 31 is tile (7,3) in an 8x4 mesh. *)
  Alcotest.(check int) "corner to corner" 10 (Topology.hops t 0 31);
  Alcotest.(check int) "symmetric" (Topology.hops t 3 17) (Topology.hops t 17 3)

let test_latency () =
  let t = default_topo () in
  Alcotest.(check (float 1e-9)) "same tile" 0.0 (Topology.latency_ns t ~src:5 ~dst:5);
  (* 3 cycles/hop at 4 GHz = 0.75 ns per hop. *)
  Alcotest.(check (float 1e-9)) "one hop" 0.75 (Topology.latency_ns t ~src:0 ~dst:1);
  let two_socket = Topology.create (Config.with_sockets Config.default 2) in
  let cross = Topology.latency_ns two_socket ~src:0 ~dst:31 in
  Alcotest.(check bool) "cross socket includes link" true (cross >= 260.0)

let test_slice_homing () =
  let two_socket = Topology.create (Config.with_sockets Config.default 2) in
  (* First-touch by a socket-1 core homes the line on socket 1. *)
  let home = Topology.slice_of_line two_socket ~requester:20 0x12345 in
  Alcotest.(check int) "home on requester socket" 1 (Topology.socket_of two_socket home);
  let home0 = Topology.slice_of_line two_socket ~requester:3 0x12345 in
  Alcotest.(check int) "socket 0" 0 (Topology.socket_of two_socket home0)

let test_max_distance () =
  let t = default_topo () in
  let d = Topology.latency_ns t ~src:0 ~dst:(Topology.cores t - 1) in
  Alcotest.(check (float 1e-9)) "10 hops from corner" 7.5 d

let test_cache_hit_miss () =
  let c = Cache.create ~size:1024 ~ways:2 ~line:64 in
  Alcotest.(check int) "sets" 8 (Cache.sets c);
  Alcotest.(check bool) "miss" true (Cache.lookup c 5 = Mesi.Invalid);
  Alcotest.(check int) "no eviction" (-1) (Cache.insert c 5 Mesi.Exclusive);
  Alcotest.(check bool) "hit" true (Cache.lookup c 5 = Mesi.Exclusive);
  Alcotest.(check int) "valid" 1 (Cache.count_valid c)

let test_cache_lru_eviction () =
  let c = Cache.create ~size:256 ~ways:2 ~line:64 in
  (* 2 sets x 2 ways; lines 0,2,4 map to set 0. *)
  ignore (Cache.insert c 0 Mesi.Shared);
  ignore (Cache.insert c 2 Mesi.Shared);
  ignore (Cache.lookup c 0);
  (* 0 is now MRU; inserting 4 must evict 2. *)
  Alcotest.(check int) "LRU victim" 2 (Cache.insert c 4 Mesi.Shared);
  Alcotest.(check bool) "0 still present" true (Cache.peek c 0 <> Mesi.Invalid)

let test_cache_invalidate () =
  let c = Cache.create ~size:256 ~ways:2 ~line:64 in
  ignore (Cache.insert c 7 Mesi.Modified);
  Alcotest.(check bool) "invalidate hit" true (Cache.invalidate c 7);
  Alcotest.(check bool) "gone" true (Cache.peek c 7 = Mesi.Invalid);
  Alcotest.(check bool) "invalidate miss" false (Cache.invalidate c 7);
  Alcotest.(check int) "valid count" 0 (Cache.count_valid c)

let test_cache_set_state () =
  let c = Cache.create ~size:256 ~ways:2 ~line:64 in
  ignore (Cache.insert c 3 Mesi.Exclusive);
  Cache.set_state c 3 Mesi.Modified;
  Alcotest.(check bool) "M" true (Cache.peek c 3 = Mesi.Modified);
  Cache.set_state c 3 Mesi.Invalid;
  Alcotest.(check bool) "invalid frees way" true (Cache.peek c 3 = Mesi.Invalid)

let prop_cache_valid_count =
  QCheck.Test.make ~name:"cache valid count matches distinct resident lines"
    QCheck.(list (int_bound 63))
    (fun lines ->
      let c = Cache.create ~size:4096 ~ways:4 ~line:64 in
      List.iter (fun l -> ignore (Cache.insert c l Mesi.Shared)) lines;
      let resident = List.length (List.sort_uniq compare (List.filter (fun l -> Cache.peek c l <> Mesi.Invalid) lines)) in
      Cache.count_valid c = resident)

(* A list-based LRU model of one cache: per set, the resident (line, state)
   pairs most recently used first, at most [ways] of them. [lookup] and
   [insert] refresh recency; [peek] and [set_state] do not. *)
module Lru_model = struct
  type t = { sets : int; ways : int; mutable lines : (int * Mesi.t) list array }

  let create ~sets ~ways = { sets; ways; lines = Array.make sets [] }
  let set_of t line = abs line mod t.sets
  let find t line = List.assoc_opt line t.lines.(set_of t line)
  let without line l = List.filter (fun (l', _) -> l' <> line) l
  let state t line = Option.value (find t line) ~default:Mesi.Invalid

  let lookup t line =
    let s = set_of t line in
    match find t line with
    | None -> Mesi.Invalid
    | Some st ->
        t.lines.(s) <- (line, st) :: without line t.lines.(s);
        st

  let set_state t line st =
    let s = set_of t line in
    if find t line <> None then
      t.lines.(s) <-
        (if st = Mesi.Invalid then without line t.lines.(s)
         else List.map (fun (l, x) -> if l = line then (l, st) else (l, x)) t.lines.(s))

  let insert t line st =
    let s = set_of t line in
    match find t line with
    | Some _ ->
        t.lines.(s) <- (line, st) :: without line t.lines.(s);
        -1
    | None ->
        let resident = t.lines.(s) in
        if List.length resident < t.ways then begin
          t.lines.(s) <- (line, st) :: resident;
          -1
        end
        else begin
          let victim, _ = List.nth resident (t.ways - 1) in
          t.lines.(s) <- (line, st) :: without victim resident;
          victim
        end

  let invalidate t line =
    let s = set_of t line in
    match find t line with
    | Some _ ->
        t.lines.(s) <- without line t.lines.(s);
        true
    | None -> false

  let count t = Array.fold_left (fun n l -> n + List.length l) 0 t.lines
end

let prop_cache_matches_lru_model =
  QCheck.Test.make ~name:"cache agrees with a list-based LRU model" ~count:300
    QCheck.(
      pair bool
        (list_of_size Gen.(0 -- 120) (triple (int_bound 4) (int_bound 23) (int_bound 3))))
    (fun (pow2, ops) ->
      (* 4 sets (mask path) or 3 sets (modulo path), 2 ways each. *)
      let sets = if pow2 then 4 else 3 in
      let c = Cache.create ~size:(sets * 2 * 64) ~ways:2 ~line:64 in
      let m = Lru_model.create ~sets ~ways:2 in
      let state_of i = [| Mesi.Modified; Mesi.Exclusive; Mesi.Shared; Mesi.Invalid |].(i) in
      List.for_all
        (fun (op, line, st) ->
          let same =
            match op with
            | 0 -> Cache.lookup c line = Lru_model.lookup m line
            | 1 -> Cache.peek c line = Lru_model.state m line
            | 2 ->
                let st = state_of (st mod 3) in
                Cache.insert c line st = Lru_model.insert m line st
            | 3 ->
                Cache.set_state c line (state_of st);
                Lru_model.set_state m line (state_of st);
                true
            | _ -> Cache.invalidate c line = Lru_model.invalidate m line
          in
          same
          && Cache.count_valid c = Lru_model.count m
          && List.for_all
               (fun l -> Cache.peek c l = Lru_model.state m l)
               (List.init 24 Fun.id))
        ops)

(* The slot API ([lookup_way], [state_at], [set_state_at], [insert_absent])
   drives one cache and the line API ([lookup], [set_state], [insert])
   another through the same accesses: states, victims and LRU order must
   stay identical. [insert_absent] is only called on absent lines. *)
let prop_slot_api_matches_line_api =
  QCheck.Test.make ~name:"slot API agrees with the line API" ~count:300
    QCheck.(
      pair bool
        (list_of_size Gen.(0 -- 150) (triple (int_bound 3) (int_bound 23) (int_bound 3))))
    (fun (pow2, ops) ->
      let sets = if pow2 then 4 else 3 in
      let mk () = Cache.create ~size:(sets * 2 * 64) ~ways:2 ~line:64 in
      let a = mk () and b = mk () in
      let state_of i = [| Mesi.Modified; Mesi.Exclusive; Mesi.Shared; Mesi.Invalid |].(i) in
      List.for_all
        (fun (op, line, st) ->
          let same =
            match op with
            | 0 ->
                let i = Cache.lookup_way a line in
                (if i < 0 then Mesi.Invalid else Cache.state_at a i) = Cache.lookup b line
            | 1 ->
                let st = state_of (st mod 3) in
                if Cache.peek a line = Mesi.Invalid then
                  Cache.insert_absent a line st = Cache.insert b line st
                else Cache.insert a line st = Cache.insert b line st
            | 2 ->
                let i = Cache.lookup_way a line in
                if i >= 0 then Cache.set_state_at a i (state_of st);
                if Cache.lookup b line <> Mesi.Invalid then Cache.set_state b line (state_of st);
                true
            | _ -> Cache.invalidate a line = Cache.invalidate b line
          in
          same
          && Cache.count_valid a = Cache.count_valid b
          && List.for_all (fun l -> Cache.peek a l = Cache.peek b l) (List.init 24 Fun.id))
        ops)

let suite =
  [
    Alcotest.test_case "config scaling" `Quick test_config_scaling;
    Alcotest.test_case "instr timing" `Quick test_instr_ns;
    Alcotest.test_case "mesh hops" `Quick test_hops;
    Alcotest.test_case "latency" `Quick test_latency;
    Alcotest.test_case "NUMA slice homing" `Quick test_slice_homing;
    Alcotest.test_case "max distance" `Quick test_max_distance;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache invalidate" `Quick test_cache_invalidate;
    Alcotest.test_case "cache set_state" `Quick test_cache_set_state;
    QCheck_alcotest.to_alcotest prop_cache_valid_count;
    QCheck_alcotest.to_alcotest prop_cache_matches_lru_model;
    QCheck_alcotest.to_alcotest prop_slot_api_matches_line_api;
  ]
