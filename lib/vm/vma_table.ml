(* Iterated by [iter]: keep the generic hash so bucket order is unchanged. *)
module Slots = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = { cfg : Va.config; entries : Vte.t Slots.t }

let create cfg = { cfg; entries = Slots.create 1024 }
let config t = t.cfg

let lookup t fp ~va =
  Footprint.clear fp;
  let slot = Va.vte_slot t.cfg va in
  if slot < 0 then None
  else begin
    Footprint.read fp (Va.slot_addr t.cfg slot);
    match Slots.find_opt t.entries slot with
    | Some vte as found when Vte.covers vte va -> found
    | Some _ | None -> None
  end

let find_base t ~base =
  let slot = Va.vte_slot t.cfg base in
  if slot < 0 then None
  else
    match Slots.find_opt t.entries slot with
    | Some vte as found when Vte.base vte = base -> found
    | Some _ | None -> None

let insert t fp vte =
  Footprint.clear fp;
  let slot = Va.vte_slot t.cfg (Vte.base vte) in
  if slot < 0 then invalid_arg "Vma_table.insert: not a Jord VA";
  if Slots.mem t.entries slot then invalid_arg "Vma_table.insert: slot occupied";
  Slots.add t.entries slot vte;
  Footprint.write fp (Va.slot_addr t.cfg slot)

let remove t fp ~va =
  Footprint.clear fp;
  let slot = Va.vte_slot t.cfg va in
  if slot < 0 then None
  else begin
    Footprint.write fp (Va.slot_addr t.cfg slot);
    match Slots.find_opt t.entries slot with
    | Some vte as found when Vte.covers vte va ->
        Slots.remove t.entries slot;
        found
    | Some _ | None -> None
  end

let touch t fp ~va =
  Footprint.clear fp;
  let slot = Va.vte_slot t.cfg va in
  if slot >= 0 then Footprint.write fp (Va.slot_addr t.cfg slot)

let count t = Slots.length t.entries
let iter f t = Slots.iter (fun _ vte -> f vte) t.entries
