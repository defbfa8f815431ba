type entry = {
  mutable vte_addr : int; (* -1 = empty *)
  sharers : Jord_util.Bitset.t;
  mutable lru : int;
}

type stats = {
  mutable registrations : int;
  mutable evictions : int;
  mutable tracked_shootdowns : int;
  mutable fallback_shootdowns : int;
}

type t = {
  sets : int;
  ways : int;
  cores : int;
  slots : entry array;
  mutable tick : int;
  stats : stats;
}

let create ?(sets = 512) ?(ways = 8) ~cores () =
  if sets <= 0 || ways <= 0 then invalid_arg "Vtd.create";
  let mk _ = { vte_addr = -1; sharers = Jord_util.Bitset.create cores; lru = 0 } in
  {
    sets;
    ways;
    cores;
    slots = Array.init (sets * ways) mk;
    tick = 0;
    stats =
      { registrations = 0; evictions = 0; tracked_shootdowns = 0; fallback_shootdowns = 0 };
  }

let stats t = t.stats
let set_of t vte_addr = (vte_addr / Va.vte_bytes) mod t.sets

(* Slot tracking [vte_addr], or -1. *)
let find t vte_addr =
  let base = set_of t vte_addr * t.ways in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && t.slots.(!i).vte_addr <> vte_addr do
    incr i
  done;
  if !i < stop then !i else -1

let touch t e =
  t.tick <- t.tick + 1;
  e.lru <- t.tick

let note_read t ~vte_addr ~core =
  t.stats.registrations <- t.stats.registrations + 1;
  let i = find t vte_addr in
  if i >= 0 then begin
    let e = t.slots.(i) in
    Jord_util.Bitset.add e.sharers core;
    touch t e
  end
  else begin
    let set = set_of t vte_addr in
    (* Empty way if any, else LRU victim (its sharers become untracked). *)
    let victim = ref (set * t.ways) and victim_lru = ref max_int and w = ref 0 in
    while !w < t.ways do
      let i = (set * t.ways) + !w in
      let e = t.slots.(i) in
      if e.vte_addr = -1 then begin
        victim := i;
        w := t.ways
      end
      else if e.lru < !victim_lru then begin
        victim := i;
        victim_lru := e.lru
      end;
      incr w
    done;
    let e = t.slots.(!victim) in
    if e.vte_addr <> -1 then t.stats.evictions <- t.stats.evictions + 1;
    e.vte_addr <- vte_addr;
    Jord_util.Bitset.clear e.sharers;
    Jord_util.Bitset.add e.sharers core;
    touch t e
  end

let sharers t ~vte_addr =
  let i = find t vte_addr in
  if i >= 0 then begin
    t.stats.tracked_shootdowns <- t.stats.tracked_shootdowns + 1;
    t.slots.(i).sharers
  end
  else begin
    t.stats.fallback_shootdowns <- t.stats.fallback_shootdowns + 1;
    raise Not_found
  end

let note_write t ~vte_addr =
  let i = find t vte_addr in
  if i >= 0 then begin
    let e = t.slots.(i) in
    e.vte_addr <- -1;
    Jord_util.Bitset.clear e.sharers
  end

let drop_core t ~vte_addr ~core =
  let i = find t vte_addr in
  if i >= 0 then Jord_util.Bitset.remove t.slots.(i).sharers core

let tracked t =
  Array.fold_left (fun acc e -> if e.vte_addr <> -1 then acc + 1 else acc) 0 t.slots
