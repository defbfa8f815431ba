type entry = { vte_addr : int; vte : Vte.t; mutable lru : int }

type stats = { mutable hits : int; mutable misses : int; mutable shootdowns : int }

type t = {
  entries : entry option array;
  mutable tick : int;
  stats : stats;
}

let create ~entries =
  if entries <= 0 then invalid_arg "Vlb.create";
  {
    entries = Array.make entries None;
    tick = 0;
    stats = { hits = 0; misses = 0; shootdowns = 0 };
  }

let capacity t = Array.length t.entries
let stats t = t.stats

let touch t e =
  t.tick <- t.tick + 1;
  e.lru <- t.tick

let lookup t ~va =
  let n = Array.length t.entries in
  let hit = ref (-1) and i = ref 0 in
  while !hit < 0 && !i < n do
    (match t.entries.(!i) with
    | Some e when Vte.covers e.vte va ->
        touch t e;
        hit := !i
    | Some _ | None -> ());
    incr i
  done;
  if !hit >= 0 then t.stats.hits <- t.stats.hits + 1
  else t.stats.misses <- t.stats.misses + 1;
  !hit

let vte t slot =
  match t.entries.(slot) with
  | Some e -> e.vte
  | None -> invalid_arg "Vlb.vte: empty slot"

let find_slot t ~vte_addr =
  let n = Array.length t.entries in
  let i = ref 0 in
  while
    !i < n
    && match t.entries.(!i) with Some e -> e.vte_addr <> vte_addr | None -> true
  do
    incr i
  done;
  if !i < n then !i else -1

let fill t ~vte_addr vte =
  let slot = find_slot t ~vte_addr in
  let slot =
    if slot >= 0 then slot
    else begin
      (* Pick an empty slot, else the LRU victim. *)
      let n = Array.length t.entries in
      let victim = ref (-1) and victim_lru = ref max_int and i = ref 0 in
      while !i < n do
        (match t.entries.(!i) with
        | None ->
            victim := !i;
            i := n
        | Some e ->
            if e.lru < !victim_lru then begin
              victim := !i;
              victim_lru := e.lru
            end);
        incr i
      done;
      !victim
    end
  in
  let e = { vte_addr; vte; lru = 0 } in
  t.entries.(slot) <- Some e;
  touch t e

let invalidate_vte t ~vte_addr =
  let slot = find_slot t ~vte_addr in
  if slot < 0 then false
  else begin
    t.entries.(slot) <- None;
    t.stats.shootdowns <- t.stats.shootdowns + 1;
    true
  end

let invalidate_all t =
  Array.fill t.entries 0 (Array.length t.entries) None

let contains_vte t ~vte_addr = find_slot t ~vte_addr >= 0

let resident t =
  Array.to_list t.entries
  |> List.filter_map (function Some e -> Some e.vte_addr | None -> None)

let occupancy t =
  Array.fold_left (fun acc e -> match e with Some _ -> acc + 1 | None -> acc) 0 t.entries
