type stats = {
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable llc_hits : int;
  mutable dram_fills : int;
  mutable forwards : int;
  mutable upgrades : int;
  mutable invalidations : int;
}

type t = {
  topo : Topology.t;
  cfg : Config.t;
  l1 : Cache.t array;
  dir : Directory.t;
  stats : stats;
  cores : int;
  lat : Float.Array.t; (* Topology.latency_table *)
  l1_ns : float;
  llc_ns : float;
  atomic_ns : float; (* serialization cost of a locked RMW *)
}

let create topo =
  let cfg = Topology.config topo in
  let mk_l1 _ =
    Cache.create ~size:cfg.Config.l1_size ~ways:cfg.Config.l1_ways ~line:cfg.Config.line
  in
  {
    topo;
    cfg;
    l1 = Array.init (Topology.cores topo) mk_l1;
    dir = Directory.create ~cores:(Topology.cores topo);
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
    cores = Topology.cores topo;
    lat = Topology.latency_table topo;
    l1_ns = Config.cycles_ns cfg cfg.Config.l1_latency;
    llc_ns = Config.cycles_ns cfg cfg.Config.llc_latency;
    atomic_ns = Config.cycles_ns cfg 4;
  }

let topology t = t.topo
let config t = t.cfg
let stats t = t.stats
let line_of t addr = addr / t.cfg.Config.line
let lat t a b = Float.Array.get t.lat ((a * t.cores) + b)

(* The line's directory entry, created homed at first touch. *)
let entry t ~core ~line ~addr =
  match Directory.find t.dir line with
  | e -> e
  | exception Not_found ->
      Directory.add t.dir line ~home:(Topology.slice_of_line t.topo ~requester:core addr)

(* Invalidate the line in every sharer's L1 except [keep], in ascending core
   order. Invalidations are sent in parallel from the home slice; the cost
   is the round trip to the farthest sharer. *)
let invalidate_sharers t entry line ~home ~keep =
  let sharers = entry.Directory.sharers in
  let worst = ref 0.0 in
  let core = ref (Jord_util.Bitset.next_set sharers 0) in
  while !core >= 0 do
    let c = !core in
    if c <> keep then begin
      ignore (Cache.invalidate t.l1.(c) line);
      Jord_util.Bitset.remove sharers c;
      if entry.Directory.owner = c then entry.Directory.owner <- -1;
      t.stats.invalidations <- t.stats.invalidations + 1;
      let d = 2.0 *. lat t home c in
      if d > !worst then worst := d
    end;
    core := Jord_util.Bitset.next_set sharers (c + 1)
  done;
  !worst

(* Fetch a line into [core]'s L1 with the desired state, accounting for the
   directory lookup at the home slice, remote-owner forwarding, LLC presence
   and DRAM cold fills. Returns latency. *)
let fill t ~core ~line ~addr ~exclusive =
  t.stats.l1_misses <- t.stats.l1_misses + 1;
  let entry = entry t ~core ~line ~addr in
  let home = entry.Directory.home in
  let base = t.l1_ns +. (2.0 *. lat t core home) +. t.llc_ns in
  let owner = entry.Directory.owner in
  let extra =
    if owner >= 0 && owner <> core then begin
      (* Cache-to-cache transfer: home forwards the request to the owner,
         which replies directly to the requester. *)
      t.stats.forwards <- t.stats.forwards + 1;
      let fwd = lat t home owner +. lat t owner core in
      if exclusive then begin
        ignore (Cache.invalidate t.l1.(owner) line);
        Jord_util.Bitset.remove entry.Directory.sharers owner;
        entry.Directory.owner <- -1;
        t.stats.invalidations <- t.stats.invalidations + 1
      end
      else begin
        Cache.set_state t.l1.(owner) line Mesi.Shared;
        entry.Directory.owner <- -1
      end;
      entry.Directory.in_llc <- true;
      fwd
    end
    else if entry.Directory.in_llc then begin
      t.stats.llc_hits <- t.stats.llc_hits + 1;
      0.0
    end
    else begin
      t.stats.dram_fills <- t.stats.dram_fills + 1;
      entry.Directory.in_llc <- true;
      t.cfg.Config.dram_ns
    end
  in
  let inval_cost =
    if exclusive then invalidate_sharers t entry line ~home ~keep:core else 0.0
  in
  let state =
    if exclusive then Mesi.Modified
    else if Jord_util.Bitset.is_empty entry.Directory.sharers then Mesi.Exclusive
    else Mesi.Shared
  in
  (* An L1 eviction tells the directory the core no longer holds the line. *)
  let evicted = Cache.insert t.l1.(core) line state in
  if evicted >= 0 then Directory.drop_core t.dir evicted core;
  Jord_util.Bitset.add entry.Directory.sharers core;
  if exclusive then entry.Directory.owner <- core
  else if state = Mesi.Exclusive then entry.Directory.owner <- core;
  base +. extra +. inval_cost

let read t ~core ~addr =
  let line = line_of t addr in
  match Cache.lookup t.l1.(core) line with
  | Mesi.Modified | Mesi.Exclusive | Mesi.Shared ->
      t.stats.l1_hits <- t.stats.l1_hits + 1;
      t.l1_ns
  | Mesi.Invalid -> fill t ~core ~line ~addr ~exclusive:false

let write t ~core ~addr =
  let line = line_of t addr in
  match Cache.lookup t.l1.(core) line with
  | Mesi.Modified | Mesi.Exclusive ->
      t.stats.l1_hits <- t.stats.l1_hits + 1;
      Cache.set_state t.l1.(core) line Mesi.Modified;
      Directory.set_owner t.dir line core;
      t.l1_ns
  | Mesi.Shared ->
      (* Upgrade: request ownership from home, invalidate other sharers. *)
      t.stats.upgrades <- t.stats.upgrades + 1;
      let entry = entry t ~core ~line ~addr in
      let home = entry.Directory.home in
      let inval = invalidate_sharers t entry line ~home ~keep:core in
      Cache.set_state t.l1.(core) line Mesi.Modified;
      entry.Directory.owner <- core;
      Jord_util.Bitset.add entry.Directory.sharers core;
      t.l1_ns +. (2.0 *. lat t core home) +. inval
  | Mesi.Invalid -> fill t ~core ~line ~addr ~exclusive:true

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

let no_sharers = Jord_util.Bitset.create 1

let sharers t ~addr =
  match Directory.find t.dir (line_of t addr) with
  | e -> e.Directory.sharers
  | exception Not_found -> no_sharers

let home_of t ~addr ~requester =
  (entry t ~core:requester ~line:(line_of t addr) ~addr).Directory.home
