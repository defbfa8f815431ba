type config = { top_tag : int; table_base : int; table_capacity : int }

let vte_bytes = 64
let class_lo = 51
let class_width = 5
let top_lo = 56
let top_width = 4

let default_config =
  { top_tag = 0xA; table_base = 1 lsl 40; table_capacity = 1 lsl 20 }

let slots_per_class cfg = cfg.table_capacity / Size_class.count

let encode cfg sc ~index ~offset =
  let offs_bits = Size_class.offset_bits sc in
  if offset < 0 || offset >= Size_class.bytes sc then invalid_arg "Va.encode: offset";
  if index < 0 || index >= slots_per_class cfg then invalid_arg "Va.encode: index";
  if index lsl offs_bits >= 1 lsl class_lo then invalid_arg "Va.encode: index width";
  (cfg.top_tag lsl top_lo)
  lor (Size_class.to_index sc lsl class_lo)
  lor (index lsl offs_bits)
  lor offset

let is_jord cfg va =
  va >= 0 && Jord_util.Bits.extract va ~lo:top_lo ~width:top_width = cfg.top_tag

let vte_index cfg sc ~index =
  let i = (index * Size_class.count) + Size_class.to_index sc in
  if i >= cfg.table_capacity then invalid_arg "Va.vte_index: table overflow";
  i

let slot_addr cfg slot = cfg.table_base + (slot * vte_bytes)
let vte_addr cfg sc ~index = slot_addr cfg (vte_index cfg sc ~index)
let slot_class slot = Size_class.of_index (slot mod Size_class.count)
let slot_index slot = slot / Size_class.count

(* The VTE index of a Jord VA, or -1: [decode] without the option. *)
let vte_slot cfg va =
  if not (is_jord cfg va) then -1
  else
    let sc_i = Jord_util.Bits.extract va ~lo:class_lo ~width:class_width in
    if sc_i >= Size_class.count then -1
    else
      let sc = Size_class.of_index sc_i in
      let offs_bits = Size_class.offset_bits sc in
      let index = Jord_util.Bits.extract va ~lo:offs_bits ~width:(class_lo - offs_bits) in
      if index >= slots_per_class cfg then -1 else vte_index cfg sc ~index

let decode cfg va =
  let slot = vte_slot cfg va in
  if slot < 0 then None
  else
    let sc = slot_class slot in
    Some (sc, slot_index slot, va land ((1 lsl Size_class.offset_bits sc) - 1))

let vte_addr_of_va cfg va =
  let slot = vte_slot cfg va in
  if slot < 0 then invalid_arg "Va: not a Jord-managed address";
  slot_addr cfg slot
