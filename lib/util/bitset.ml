type t = { words : int array; capacity : int; mutable cardinal : int }

let create n =
  if n <= 0 then invalid_arg "Bitset.create";
  { words = Array.make (Bits.ceil_div n 62) 0; capacity = n; cardinal = 0 }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: out of range"

let mem t i =
  check t i;
  t.words.(i / 62) land (1 lsl (i mod 62)) <> 0

let add t i =
  check t i;
  if not (mem t i) then begin
    t.words.(i / 62) <- t.words.(i / 62) lor (1 lsl (i mod 62));
    t.cardinal <- t.cardinal + 1
  end

let remove t i =
  check t i;
  if mem t i then begin
    t.words.(i / 62) <- t.words.(i / 62) land lnot (1 lsl (i mod 62));
    t.cardinal <- t.cardinal - 1
  end

let is_empty t = t.cardinal = 0
let cardinal t = t.cardinal

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.cardinal <- 0

let next_set t i =
  let i = Int.max i 0 in
  if i >= t.capacity then -1
  else begin
    let nw = Array.length t.words in
    let w = ref (i / 62) in
    let word = ref (t.words.(!w) land (-1 lsl (i mod 62))) in
    while !word = 0 && !w < nw - 1 do
      incr w;
      word := t.words.(!w)
    done;
    if !word = 0 then -1 else (!w * 62) + Bits.lowest_bit !word
  end

(* Visit each word's members from a snapshot of the word, lowest bit first,
   so [f] may remove the member it is given. *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    while !word <> 0 do
      f ((w * 62) + Bits.lowest_bit !word);
      word := !word land (!word - 1)
    done
  done

let fold f init t =
  let acc = ref init in
  iter (fun i -> acc := f !acc i) t;
  !acc

let to_list t = List.rev (fold (fun acc i -> i :: acc) [] t)

let copy t =
  { words = Array.copy t.words; capacity = t.capacity; cardinal = t.cardinal }
