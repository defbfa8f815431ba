type slot = { pd : int; perm : Perm.t }

type t = {
  base : int;
  mutable bytes : int;
  chunk_bytes : int;
  phys : int;
  privileged : bool;
  global_perm : Perm.t option;
  sub_pd : int array; (* 20 hardware slots: PD id, or -1 when free *)
  sub_perm : Perm.t array;
  mutable overflow : slot list; (* reached via the ptr field *)
}

let sub_array_capacity = 20

let create ~base ~bytes ~phys ?(global_perm = None) ?(privileged = false) () =
  if bytes <= 0 then invalid_arg "Vte.create: bytes";
  let chunk_bytes = Size_class.bytes (Size_class.of_size bytes) in
  {
    base;
    bytes;
    chunk_bytes;
    phys;
    privileged;
    global_perm;
    sub_pd = Array.make sub_array_capacity (-1);
    sub_perm = Array.make sub_array_capacity Perm.none;
    overflow = [];
  }

let base t = t.base
let bytes t = t.bytes
let phys t = t.phys
let privileged t = t.privileged
let global_perm t = t.global_perm
let covers t va = va >= t.base && va < t.base + t.bytes

let translate t va =
  if not (covers t va) then invalid_arg "Vte.translate: not covered";
  t.phys + (va - t.base)

(* Sub-array slot holding [pd] (-1 for a free slot), or -1. *)
let find_sub t pd =
  let i = ref 0 in
  while !i < sub_array_capacity && t.sub_pd.(!i) <> pd do
    incr i
  done;
  if !i < sub_array_capacity then !i else -1

let rec overflow_perm pd = function
  | [] -> Perm.none
  | s :: rest -> if s.pd = pd then s.perm else overflow_perm pd rest

let rec overflow_has pd = function
  | [] -> false
  | s :: rest -> s.pd = pd || overflow_has pd rest

let perm_for t ~pd =
  match t.global_perm with
  | Some p -> p
  | None ->
      let i = find_sub t pd in
      if i >= 0 then t.sub_perm.(i) else overflow_perm pd t.overflow

let overflow_lookup_needed t ~pd =
  match (t.global_perm, t.overflow) with
  | None, _ :: _ -> find_sub t pd < 0
  | Some _, _ | None, [] -> false

let set_perm t ~pd perm =
  (* Remove any existing binding first, then insert. *)
  let i = find_sub t pd in
  if i >= 0 then begin
    t.sub_pd.(i) <- -1;
    t.sub_perm.(i) <- Perm.none
  end;
  (match t.overflow with
  | [] -> ()
  | _ :: _ -> t.overflow <- List.filter (fun s -> s.pd <> pd) t.overflow);
  if not (Perm.equal perm Perm.none) then begin
    let free = find_sub t (-1) in
    if free >= 0 then begin
      t.sub_pd.(free) <- pd;
      t.sub_perm.(free) <- perm
    end
    else t.overflow <- { pd; perm } :: t.overflow
  end

let has_pd t ~pd = (pd >= 0 && find_sub t pd >= 0) || overflow_has pd t.overflow

let iter_sharers f t =
  for i = 0 to sub_array_capacity - 1 do
    if t.sub_pd.(i) >= 0 then f t.sub_pd.(i)
  done;
  List.iter (fun s -> f s.pd) t.overflow

let sharer_count t =
  let n = ref (List.length t.overflow) in
  for i = 0 to sub_array_capacity - 1 do
    if t.sub_pd.(i) >= 0 then incr n
  done;
  !n

let resize t ~bytes =
  if bytes <= 0 || bytes > t.chunk_bytes then invalid_arg "Vte.resize";
  t.bytes <- bytes
