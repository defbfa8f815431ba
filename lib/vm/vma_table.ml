(* Entries indexed by VTE slot, as the hardware addresses them; the array
   grows by doubling up to the highest slot inserted. *)
type t = { cfg : Va.config; mutable entries : Vte.t option array; mutable count : int }

let create cfg = { cfg; entries = Array.make 64 None; count = 0 }
let config t = t.cfg

(* The stored option of a non-negative slot, [None] past the array. *)
let at t slot = if slot < Array.length t.entries then t.entries.(slot) else None

let lookup t fp ~va =
  Footprint.clear fp;
  let slot = Va.vte_slot t.cfg va in
  if slot < 0 then None
  else begin
    Footprint.read fp (Va.slot_addr t.cfg slot);
    match at t slot with
    | Some vte as found when Vte.covers vte va -> found
    | Some _ | None -> None
  end

let find_base t ~base =
  let slot = Va.vte_slot t.cfg base in
  if slot < 0 then None
  else
    match at t slot with
    | Some vte as found when Vte.base vte = base -> found
    | Some _ | None -> None

let insert t fp vte =
  Footprint.clear fp;
  let slot = Va.vte_slot t.cfg (Vte.base vte) in
  if slot < 0 then invalid_arg "Vma_table.insert: not a Jord VA";
  if at t slot <> None then invalid_arg "Vma_table.insert: slot occupied";
  let n = Array.length t.entries in
  if slot >= n then begin
    let grown = Array.make (Jord_util.Bits.ceil_pow2 (slot + 1)) None in
    Array.blit t.entries 0 grown 0 n;
    t.entries <- grown
  end;
  t.entries.(slot) <- Some vte;
  t.count <- t.count + 1;
  Footprint.write fp (Va.slot_addr t.cfg slot)

let remove t fp ~va =
  Footprint.clear fp;
  let slot = Va.vte_slot t.cfg va in
  if slot < 0 then None
  else begin
    Footprint.write fp (Va.slot_addr t.cfg slot);
    match at t slot with
    | Some vte as found when Vte.covers vte va ->
        t.entries.(slot) <- None;
        t.count <- t.count - 1;
        found
    | Some _ | None -> None
  end

let touch t fp ~va =
  Footprint.clear fp;
  let slot = Va.vte_slot t.cfg va in
  if slot >= 0 then Footprint.write fp (Va.slot_addr t.cfg slot)

let count t = t.count
