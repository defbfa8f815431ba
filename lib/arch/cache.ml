type t = {
  sets : int;
  set_mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  ways : int;
  tags : int array; (* line index, or -1 when the way is empty *)
  states : Mesi.t array;
  lru : int array; (* bigger = more recently used *)
  mutable tick : int;
  mutable valid : int;
}

let create ~size ~ways ~line =
  if size <= 0 || ways <= 0 || line <= 0 then invalid_arg "Cache.create";
  let lines = size / line in
  if lines mod ways <> 0 then invalid_arg "Cache.create: lines not divisible by ways";
  let sets = lines / ways in
  {
    sets;
    set_mask = (if Jord_util.Bits.is_power_of_two sets then sets - 1 else -1);
    ways;
    tags = Array.make lines (-1);
    states = Array.make lines Mesi.Invalid;
    lru = Array.make lines 0;
    tick = 0;
    valid = 0;
  }

let sets t = t.sets
let ways t = t.ways

let set_of t line =
  if t.set_mask >= 0 then abs line land t.set_mask else abs line mod t.sets

(* Slot holding [line], or -1. *)
let find_way t line =
  let base = set_of t line * t.ways in
  let stop = base + t.ways in
  let i = ref base in
  while !i < stop && not (t.tags.(!i) = line && t.states.(!i) <> Mesi.Invalid) do
    incr i
  done;
  if !i < stop then !i else -1

let touch t i =
  t.tick <- t.tick + 1;
  t.lru.(i) <- t.tick

let lookup_way t line =
  let i = find_way t line in
  if i >= 0 then touch t i;
  i

let lookup t line =
  let i = lookup_way t line in
  if i < 0 then Mesi.Invalid else t.states.(i)

let peek t line =
  let i = find_way t line in
  if i < 0 then Mesi.Invalid else t.states.(i)

let state_at t i = t.states.(i)

let set_state_at t i state =
  if state = Mesi.Invalid then begin
    t.tags.(i) <- -1;
    t.valid <- t.valid - 1
  end;
  t.states.(i) <- state

let set_state t line state =
  let i = find_way t line in
  if i >= 0 then set_state_at t i state

(* Prefer an empty way; otherwise evict the least recently used. *)
let victim_way t set =
  let best = ref (-1) and best_lru = ref max_int and empty = ref (-1) in
  for w = 0 to t.ways - 1 do
    let i = (set * t.ways) + w in
    if t.states.(i) = Mesi.Invalid then (if !empty < 0 then empty := i)
    else if t.lru.(i) < !best_lru then begin
      best := i;
      best_lru := t.lru.(i)
    end
  done;
  if !empty >= 0 then !empty else !best

let insert_absent t line state =
  if state = Mesi.Invalid then invalid_arg "Cache.insert: Invalid";
  let i = victim_way t (set_of t line) in
  let evicted = if t.states.(i) = Mesi.Invalid then -1 else t.tags.(i) in
  if evicted < 0 then t.valid <- t.valid + 1;
  t.tags.(i) <- line;
  t.states.(i) <- state;
  touch t i;
  evicted

let insert t line state =
  if state = Mesi.Invalid then invalid_arg "Cache.insert: Invalid";
  let i = find_way t line in
  if i < 0 then insert_absent t line state
  else begin
    t.states.(i) <- state;
    touch t i;
    -1
  end

let invalidate t line =
  let i = find_way t line in
  if i < 0 then false
  else begin
    t.tags.(i) <- -1;
    t.states.(i) <- Mesi.Invalid;
    t.valid <- t.valid - 1;
    true
  end

let count_valid t = t.valid

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.states 0 (Array.length t.states) Mesi.Invalid;
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.tick <- 0;
  t.valid <- 0
