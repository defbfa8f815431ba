type stats = { mutable hits : int; mutable misses : int; mutable shootdowns : int }

(* One slot per entry across three parallel arrays. [vtes] is created at the
   first fill, from the VTE being filled, so no placeholder VTE is needed;
   a slot's VTE is meaningful only while its tag is not [empty]. *)
type t = {
  tags : int array; (* backing VTE address, or [empty] *)
  mutable vtes : Vte.t array;
  lru : int array; (* bigger = more recently used *)
  mutable tick : int;
  stats : stats;
}

let empty = min_int

let create ~entries =
  if entries <= 0 then invalid_arg "Vlb.create";
  {
    tags = Array.make entries empty;
    vtes = [||];
    lru = Array.make entries 0;
    tick = 0;
    stats = { hits = 0; misses = 0; shootdowns = 0 };
  }

let capacity t = Array.length t.tags
let stats t = t.stats

let touch t i =
  t.tick <- t.tick + 1;
  t.lru.(i) <- t.tick

let lookup t ~va =
  let n = Array.length t.tags in
  let i = ref 0 in
  while !i < n && not (t.tags.(!i) <> empty && Vte.covers t.vtes.(!i) va) do
    incr i
  done;
  if !i < n then begin
    touch t !i;
    t.stats.hits <- t.stats.hits + 1;
    !i
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    -1
  end

let vte t slot =
  if t.tags.(slot) = empty then invalid_arg "Vlb.vte: empty slot";
  t.vtes.(slot)

let find_slot t ~vte_addr =
  let n = Array.length t.tags in
  let i = ref 0 in
  while !i < n && t.tags.(!i) <> vte_addr do
    incr i
  done;
  if !i < n then !i else -1

(* The first empty slot, else the least recently used one. *)
let victim t =
  let n = Array.length t.tags in
  let victim = ref (-1) and victim_lru = ref max_int and i = ref 0 in
  while !i < n do
    if t.tags.(!i) = empty then begin
      victim := !i;
      i := n
    end
    else begin
      if t.lru.(!i) < !victim_lru then begin
        victim := !i;
        victim_lru := t.lru.(!i)
      end;
      incr i
    end
  done;
  !victim

let fill t ~vte_addr vte =
  if Array.length t.vtes = 0 then t.vtes <- Array.make (capacity t) vte;
  let slot = find_slot t ~vte_addr in
  let slot = if slot >= 0 then slot else victim t in
  t.tags.(slot) <- vte_addr;
  t.vtes.(slot) <- vte;
  touch t slot

let invalidate_vte t ~vte_addr =
  let slot = find_slot t ~vte_addr in
  if slot < 0 then false
  else begin
    t.tags.(slot) <- empty;
    t.stats.shootdowns <- t.stats.shootdowns + 1;
    true
  end

let invalidate_all t = Array.fill t.tags 0 (Array.length t.tags) empty
let resident t = Array.to_list t.tags |> List.filter (fun tag -> tag <> empty)

let occupancy t =
  Array.fold_left (fun acc tag -> if tag = empty then acc else acc + 1) 0 t.tags
