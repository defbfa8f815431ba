type stats = {
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable llc_hits : int;
  mutable dram_fills : int;
  mutable forwards : int;
  mutable upgrades : int;
  mutable invalidations : int;
}

(* The coherence directory is folded in. An open-addressing table maps a
   line to a dense entry index (linear probing, power-of-two capacity,
   doubled at half load); its probe slots interleave line and index in one
   array. Entry [e] occupies [stride] ints of [dir] from [e * stride]: a
   meta word packing the home slice (first touch), the M/E owner + 1 (0
   when none) and the LLC bit, then the sharer words, so one access reads
   one probe slot and one entry. Entries are never removed, so an index
   stays valid across growth. *)
type t = {
  topo : Topology.t;
  cfg : Config.t;
  l1 : Cache.t array;
  stats : stats;
  cores : int;
  lat : Float.Array.t; (* Topology.latency_table *)
  l1_ns : float;
  llc_ns : float;
  atomic_ns : float; (* serialization cost of a locked RMW *)
  stride : int; (* ints per entry: the meta word, then 62 cores per sharer word *)
  mutable mask : int; (* probe slots - 1 *)
  mutable index : int array; (* slot i: line (or [no_line]) at 2i, entry at 2i+1 *)
  mutable entries : int;
  mutable dir : int array;
  scratch : Jord_util.Bitset.t; (* returned by [sharers] *)
}

let no_line = min_int
let initial_entries = 256

(* Meta word: bits 0-19 home, 20-39 owner + 1, bit 40 LLC presence. *)
let field_bits = 20
let field_mask = (1 lsl field_bits) - 1
let owner_mask = field_mask lsl field_bits
let llc_bit = 1 lsl (2 * field_bits)

let create topo =
  let cfg = Topology.config topo in
  let cores = Topology.cores topo in
  if cores >= field_mask then invalid_arg "Memsys.create: too many cores";
  let mk_l1 _ =
    Cache.create ~size:cfg.Config.l1_size ~ways:cfg.Config.l1_ways ~line:cfg.Config.line
  in
  let stride = 1 + Jord_util.Bits.ceil_div cores 62 in
  {
    topo;
    cfg;
    l1 = Array.init cores mk_l1;
    stats =
      {
        l1_hits = 0;
        l1_misses = 0;
        llc_hits = 0;
        dram_fills = 0;
        forwards = 0;
        upgrades = 0;
        invalidations = 0;
      };
    cores;
    lat = Topology.latency_table topo;
    l1_ns = Config.cycles_ns cfg cfg.Config.l1_latency;
    llc_ns = Config.cycles_ns cfg cfg.Config.llc_latency;
    atomic_ns = Config.cycles_ns cfg 4;
    stride;
    mask = (2 * initial_entries) - 1;
    index = Array.make (4 * initial_entries) no_line;
    entries = 0;
    dir = Array.make (initial_entries * stride) 0;
    scratch = Jord_util.Bitset.create cores;
  }

let topology t = t.topo
let config t = t.cfg
let stats t = t.stats
let dir_entries t = t.entries
let line_of t addr = addr / t.cfg.Config.line
let[@inline] lat t a b = Float.Array.get t.lat ((a * t.cores) + b)

(* First probe slot of a line: a cheap multiplicative mix. *)
let probe_start t line =
  let h = line * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land t.mask

(* Probe slot holding [line], or the empty slot where it would go. *)
let probe t line =
  let i = ref (probe_start t line) in
  while
    let k = t.index.(2 * !i) in
    k <> line && k <> no_line
  do
    i := (!i + 1) land t.mask
  done;
  !i

(* Entry index of a line, or -1 when it has none. *)
let find t line =
  let i = probe t line in
  if t.index.(2 * i) = line then t.index.((2 * i) + 1) else -1

(* Double the probe slots (rehashing every line) and the entry capacity. *)
let grow t =
  let old = t.index and old_slots = t.mask + 1 in
  t.mask <- (2 * old_slots) - 1;
  t.index <- Array.make (4 * old_slots) no_line;
  for j = 0 to old_slots - 1 do
    let line = old.(2 * j) in
    if line <> no_line then begin
      let i = probe t line in
      t.index.(2 * i) <- line;
      t.index.((2 * i) + 1) <- old.((2 * j) + 1)
    end
  done;
  let dir = Array.make (2 * Array.length t.dir) 0 in
  Array.blit t.dir 0 dir 0 (Array.length t.dir);
  t.dir <- dir

(* The line's entry index, the entry created homed at first touch. *)
let entry t ~core ~line ~addr =
  let i = probe t line in
  if t.index.(2 * i) = line then t.index.((2 * i) + 1)
  else begin
    let e = t.entries in
    let i =
      if e * t.stride < Array.length t.dir then i
      else begin
        grow t;
        probe t line
      end
    in
    t.index.(2 * i) <- line;
    t.index.((2 * i) + 1) <- e;
    t.entries <- e + 1;
    t.dir.(e * t.stride) <- Topology.slice_of_line t.topo ~requester:core addr;
    e
  end

let home t e = t.dir.(e * t.stride) land field_mask
let owner t e = ((t.dir.(e * t.stride) lsr field_bits) land field_mask) - 1

let set_owner t e core =
  let m = e * t.stride in
  t.dir.(m) <- t.dir.(m) land lnot owner_mask lor ((core + 1) lsl field_bits)

let in_llc t e = t.dir.(e * t.stride) land llc_bit <> 0

let set_in_llc t e =
  let m = e * t.stride in
  t.dir.(m) <- t.dir.(m) lor llc_bit

let add_sharer t e core =
  let w = (e * t.stride) + 1 + (core / 62) in
  t.dir.(w) <- t.dir.(w) lor (1 lsl (core mod 62))

let remove_sharer t e core =
  let w = (e * t.stride) + 1 + (core / 62) in
  t.dir.(w) <- t.dir.(w) land lnot (1 lsl (core mod 62))

let is_sharer t e core =
  t.dir.((e * t.stride) + 1 + (core / 62)) land (1 lsl (core mod 62)) <> 0

let no_sharers t e =
  let w = ref ((e * t.stride) + 1) and stop = (e + 1) * t.stride in
  while !w < stop && t.dir.(!w) = 0 do
    incr w
  done;
  !w = stop

(* An L1 eviction tells the directory the core no longer holds the line. *)
let drop_core t line core =
  let e = find t line in
  if e >= 0 then begin
    remove_sharer t e core;
    if owner t e = core then set_owner t e (-1)
  end

(* Invalidate the line in every sharer's L1 except [keep], in ascending core
   order. Invalidations are sent in parallel from the home slice; the cost
   is the round trip to the farthest sharer. *)
let invalidate_sharers t e line ~home ~keep =
  let worst = ref 0.0 in
  for w = 0 to t.stride - 2 do
    let word = ref t.dir.((e * t.stride) + 1 + w) in
    while !word <> 0 do
      let c = (w * 62) + Jord_util.Bits.lowest_bit !word in
      word := !word land (!word - 1);
      if c <> keep then begin
        ignore (Cache.invalidate t.l1.(c) line);
        remove_sharer t e c;
        if owner t e = c then set_owner t e (-1);
        t.stats.invalidations <- t.stats.invalidations + 1;
        let d = 2.0 *. lat t home c in
        if d > !worst then worst := d
      end
    done
  done;
  !worst

(* Fetch a line into [core]'s L1 with the desired state, accounting for the
   directory lookup at the home slice, remote-owner forwarding, LLC presence
   and DRAM cold fills. Returns latency. *)
let fill t ~core ~line ~addr ~exclusive =
  t.stats.l1_misses <- t.stats.l1_misses + 1;
  let e = entry t ~core ~line ~addr in
  let home = home t e in
  let base = t.l1_ns +. (2.0 *. lat t core home) +. t.llc_ns in
  let owner = owner t e in
  let extra =
    if owner >= 0 && owner <> core then begin
      (* Cache-to-cache transfer: home forwards the request to the owner,
         which replies directly to the requester. *)
      t.stats.forwards <- t.stats.forwards + 1;
      let fwd = lat t home owner +. lat t owner core in
      if exclusive then begin
        ignore (Cache.invalidate t.l1.(owner) line);
        remove_sharer t e owner;
        t.stats.invalidations <- t.stats.invalidations + 1
      end
      else Cache.set_state t.l1.(owner) line Mesi.Shared;
      set_owner t e (-1);
      set_in_llc t e;
      fwd
    end
    else if in_llc t e then begin
      t.stats.llc_hits <- t.stats.llc_hits + 1;
      0.0
    end
    else begin
      t.stats.dram_fills <- t.stats.dram_fills + 1;
      set_in_llc t e;
      t.cfg.Config.dram_ns
    end
  in
  let inval_cost =
    if exclusive then invalidate_sharers t e line ~home ~keep:core else 0.0
  in
  let state =
    if exclusive then Mesi.Modified
    else if no_sharers t e then Mesi.Exclusive
    else Mesi.Shared
  in
  (* [invalidate_sharers] kept [core], whose L1 missed: the line is still
     absent there. *)
  let evicted = Cache.insert_absent t.l1.(core) line state in
  if evicted >= 0 then drop_core t evicted core;
  add_sharer t e core;
  if state <> Mesi.Shared then set_owner t e core;
  base +. extra +. inval_cost

let read t ~core ~addr =
  let line = line_of t addr in
  if Cache.lookup_way t.l1.(core) line >= 0 then begin
    t.stats.l1_hits <- t.stats.l1_hits + 1;
    t.l1_ns
  end
  else fill t ~core ~line ~addr ~exclusive:false

(* An M/E hit needs no directory update: M/E in [core]'s L1 implies the
   directory already names [core] as the owner. *)
let write t ~core ~addr =
  let line = line_of t addr in
  let l1 = t.l1.(core) in
  let i = Cache.lookup_way l1 line in
  if i < 0 then fill t ~core ~line ~addr ~exclusive:true
  else if Cache.state_at l1 i <> Mesi.Shared then begin
    t.stats.l1_hits <- t.stats.l1_hits + 1;
    Cache.set_state_at l1 i Mesi.Modified;
    t.l1_ns
  end
  else begin
    (* Upgrade: request ownership from home, invalidate other sharers. *)
    t.stats.upgrades <- t.stats.upgrades + 1;
    let e = entry t ~core ~line ~addr in
    let home = home t e in
    let inval = invalidate_sharers t e line ~home ~keep:core in
    Cache.set_state_at l1 i Mesi.Modified;
    set_owner t e core;
    add_sharer t e core;
    t.l1_ns +. (2.0 *. lat t core home) +. inval
  end

(* Locked RMW: ownership acquisition plus pipeline serialization. *)
let atomic t ~core ~addr = write t ~core ~addr +. t.atomic_ns

let read_block t ~core ~addr ~bytes =
  if bytes <= 0 then 0.0
  else begin
    let line_bytes = t.cfg.Config.line in
    let nlines = Jord_util.Bits.ceil_div bytes line_bytes in
    (* The first line pays full latency; subsequent misses overlap thanks to
       memory-level parallelism and pay a quarter of their latency each. *)
    let total = ref 0.0 in
    for i = 0 to nlines - 1 do
      let l = read t ~core ~addr:(addr + (i * line_bytes)) in
      total := !total +. (if i = 0 then l else l *. 0.25)
    done;
    !total
  end

(* Pull-based telemetry: closures read the live stats record at snapshot
   time, so the coherence hot path carries no extra work. *)
let register_metrics t ?(labels = []) reg =
  let open Jord_telemetry.Registry in
  let c name help extra fn = counter_fn reg ~help ~labels:(labels @ extra) name fn in
  let s = t.stats in
  c "jord_mem_hits_total" "Cache hits by level" [ ("level", "l1") ] (fun () ->
      float_of_int s.l1_hits);
  c "jord_mem_hits_total" "Cache hits by level" [ ("level", "llc") ] (fun () ->
      float_of_int s.llc_hits);
  c "jord_mem_l1_misses_total" "L1 misses (directory consulted)" [] (fun () ->
      float_of_int s.l1_misses);
  c "jord_mem_dram_fills_total" "Lines filled from DRAM" [] (fun () ->
      float_of_int s.dram_fills);
  c "jord_mem_forwards_total" "Cache-to-cache transfers from a remote owner" []
    (fun () -> float_of_int s.forwards);
  c "jord_mem_upgrades_total" "S->M upgrades requiring invalidations" [] (fun () ->
      float_of_int s.upgrades);
  c "jord_mem_invalidations_total" "Remote L1 lines invalidated" [] (fun () ->
      float_of_int s.invalidations)

(* Cold: a copy in [t.scratch], so the caller may keep iterating it while
   later accesses move the directory. *)
let sharers t ~addr =
  let set = t.scratch in
  Jord_util.Bitset.clear set;
  let e = find t (line_of t addr) in
  if e >= 0 then
    for c = 0 to t.cores - 1 do
      if is_sharer t e c then Jord_util.Bitset.add set c
    done;
  set

let home_of t ~addr ~requester =
  let line = line_of t addr in
  home t (entry t ~core:requester ~line ~addr)

(* Cold: visits every directory entry and every core's L1 copy of it. *)
let check_invariants t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let held = Array.make t.cores 0 in
  for i = 0 to t.mask do
    let line = t.index.(2 * i) in
    if line <> no_line then begin
      let e = t.index.((2 * i) + 1) in
      let writers = ref 0 in
      for c = 0 to t.cores - 1 do
        match Cache.peek t.l1.(c) line with
        | Mesi.Invalid -> ()
        | st ->
            held.(c) <- held.(c) + 1;
            if not (is_sharer t e c) then
              err "line %d: core %d holds it but is not a sharer" line c;
            if st = Mesi.Modified || st = Mesi.Exclusive then begin
              incr writers;
              if owner t e <> c then
                err "line %d: core %d holds M/E but the owner is %d" line c (owner t e)
            end
      done;
      if !writers > 1 then err "line %d: %d cores hold M/E" line !writers;
      let o = owner t e in
      if o >= 0 then
        match Cache.peek t.l1.(o) line with
        | Mesi.Modified | Mesi.Exclusive -> ()
        | Mesi.Shared | Mesi.Invalid -> err "line %d: owner %d does not hold it in M/E" line o
    end
  done;
  Array.iteri
    (fun c l1 ->
      if Cache.count_valid l1 <> held.(c) then
        err "core %d: %d valid L1 lines but %d have a directory entry" c
          (Cache.count_valid l1) held.(c))
    t.l1;
  List.rev !errs
