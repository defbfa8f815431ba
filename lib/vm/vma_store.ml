type impl = Plain of Vma_table.t | Btree of Vma_btree.t
type t = { impl : impl; fp : Footprint.t }

let make impl = { impl; fp = Footprint.create () }
let plain cfg = make (Plain (Vma_table.create cfg))
let btree () = make (Btree (Vma_btree.create ()))
let impl t = t.impl
let kind t = match t.impl with Plain _ -> "plain-list" | Btree _ -> "b-tree"
let footprint t = t.fp

let lookup t ~va =
  match t.impl with
  | Plain p -> Vma_table.lookup p t.fp ~va
  | Btree b -> Vma_btree.lookup b t.fp ~va

let find_base t ~base =
  match t.impl with
  | Plain p -> Vma_table.find_base p ~base
  | Btree b -> Vma_btree.find_base b ~base

let insert t vte =
  match t.impl with
  | Plain p -> Vma_table.insert p t.fp vte
  | Btree b -> Vma_btree.insert b t.fp vte

let remove t ~va =
  match t.impl with
  | Plain p -> Vma_table.remove p t.fp ~va
  | Btree b -> Vma_btree.remove b t.fp ~va

let update t ~va =
  match t.impl with
  | Plain p -> Vma_table.touch p t.fp ~va
  | Btree b -> Vma_btree.touch b t.fp ~va

let count t = match t.impl with Plain p -> Vma_table.count p | Btree b -> Vma_btree.count b

let search_instrs t =
  match t.impl with
  | Plain _ -> 4 (* shift/mask/add to compute the VTE address *)
  | Btree b -> 18 * (Vma_btree.height b + 1) (* binary search per level *)
