type entry = {
  sharers : Jord_util.Bitset.t;
  mutable owner : int;
  mutable in_llc : bool;
  home : int; (* LLC slice homing the line (first-touch NUMA placement) *)
}

(* Nothing iterates the table, so a cheap multiplicative mix replaces the
   generic hash: bucket order never reaches an output. *)
module Lines = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash line =
    let h = line * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
end)

type t = { cores : int; table : entry Lines.t }

let create ~cores = { cores; table = Lines.create 4096 }
let find t line = Lines.find t.table line

let add t line ~home =
  let e =
    { sharers = Jord_util.Bitset.create t.cores; owner = -1; in_llc = false; home }
  in
  Lines.add t.table line e;
  e

let set_owner t line core =
  match find t line with e -> e.owner <- core | exception Not_found -> ()

let drop_core t line core =
  match find t line with
  | e ->
      Jord_util.Bitset.remove e.sharers core;
      if e.owner = core then e.owner <- -1
  | exception Not_found -> ()

let entries t = Lines.length t.table
let clear t = Lines.reset t.table
