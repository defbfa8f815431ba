type chunk = { index : int; phys : int }

type shard = {
  mutable cache : chunk list;
  mutable cached : int;
  head_addr : int; (* per-core head line: stays in the owner's L1 *)
}

type class_list = {
  mutable free : chunk list; (* shared backing list *)
  mutable next_index : int;
  shared_head : int;
  shards : shard array; (* one per core *)
  mutable live : Bytes.t; (* bitmap by chunk index, grown with [next_index] *)
}

type last = { mutable alloc_ns : float }

type t = {
  last : last;
  os : Os_facade.t;
  va_cfg : Jord_vm.Va.config;
  refill_batch : int;
  shard_batch : int;
  classes : class_list array;
  mutable live : int;
  alloc_counts : int array; (* allocations per size class, cumulative *)
}

(* Free-list metadata lives in PrivLib's privileged heap, above the PD
   table: one line per shared head, one line per (core, class) shard head. *)
let head_region = 1 lsl 43

let create ~os ~va_cfg ?(refill_batch = 64) ?(cores = 512) ?(shard_batch = 16) () =
  if refill_batch <= 0 || shard_batch <= 0 || cores <= 0 then
    invalid_arg "Free_list.create";
  let n_classes = Jord_vm.Size_class.count in
  let mk c =
    {
      free = [];
      next_index = 0;
      shared_head = head_region + (c * 64);
      shards =
        Array.init cores (fun core ->
            {
              cache = [];
              cached = 0;
              head_addr = head_region + (((core + 1) * n_classes * 64) + (c * 64));
            });
      live = Bytes.make 8 '\000';
    }
  in
  {
    last = { alloc_ns = 0.0 };
    os;
    va_cfg;
    refill_batch;
    shard_batch;
    classes = Array.init n_classes mk;
    live = 0;
    alloc_counts = Array.make n_classes 0;
  }

let is_live (cl : class_list) index =
  index >= 0
  && index lsr 3 < Bytes.length cl.live
  && Bytes.get_uint8 cl.live (index lsr 3) land (1 lsl (index land 7)) <> 0

let set_live (cl : class_list) index live =
  let b = Bytes.get_uint8 cl.live (index lsr 3) and bit = 1 lsl (index land 7) in
  Bytes.set_uint8 cl.live (index lsr 3) (if live then b lor bit else b land lnot bit)

(* Refill the shared list from the OS through uat_config. *)
let refill t cl sc =
  Os_facade.note_uat_config t.os;
  let bytes = Jord_vm.Size_class.bytes sc in
  let limit = Jord_vm.Va.slots_per_class t.va_cfg in
  let n = Int.min t.refill_batch (limit - cl.next_index) in
  if n <= 0 then failwith "Free_list: size class exhausted";
  let needed = Jord_util.Bits.ceil_div (cl.next_index + n) 8 in
  if needed > Bytes.length cl.live then begin
    let grown = Bytes.make (Jord_util.Bits.ceil_pow2 needed) '\000' in
    Bytes.blit cl.live 0 grown 0 (Bytes.length cl.live);
    cl.live <- grown
  end;
  for _ = 1 to n do
    let index = cl.next_index in
    cl.next_index <- index + 1;
    let phys = Os_facade.reserve_chunk t.os ~bytes in
    cl.free <- { index; phys } :: cl.free
  done;
  Os_facade.syscall_ns t.os

(* Move a batch from the shared list into a core's shard: one atomic on the
   shared head detaches the whole batch (LIFO list splice). *)
let grab_batch t ~memsys ~core cl sc shard =
  let refill_ns = if cl.free = [] then refill t cl sc else 0.0 in
  let rec take n acc =
    if n = 0 then acc
    else
      match cl.free with
      | [] -> acc
      | c :: rest ->
          cl.free <- rest;
          take (n - 1) (c :: acc)
  in
  let batch = take t.shard_batch [] in
  shard.cache <- batch @ shard.cache;
  shard.cached <- shard.cached + List.length batch;
  refill_ns
  +. Jord_arch.Memsys.atomic memsys ~core ~addr:cl.shared_head
  +. Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr

let alloc t ~memsys ~core sc =
  let ci = Jord_vm.Size_class.to_index sc in
  t.alloc_counts.(ci) <- t.alloc_counts.(ci) + 1;
  let cl = t.classes.(ci) in
  let shard = cl.shards.(core mod Array.length cl.shards) in
  let extra =
    if shard.cache = [] then grab_batch t ~memsys ~core cl sc shard else 0.0
  in
  match shard.cache with
  | [] -> failwith "Free_list.alloc: empty after refill"
  | chunk :: rest ->
      shard.cache <- rest;
      shard.cached <- shard.cached - 1;
      set_live cl chunk.index true;
      t.live <- t.live + 1;
      (* Pop from the core-local list: head line plus the chunk's embedded
         next pointer. *)
      let lat =
        Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr
        +. Jord_arch.Memsys.read memsys ~core ~addr:chunk.phys
        +. extra
      in
      t.last.alloc_ns <- lat;
      chunk

let alloc_ns t = t.last.alloc_ns

let free t ~memsys ~core sc ~index ~phys =
  let cl = t.classes.(Jord_vm.Size_class.to_index sc) in
  if not (is_live cl index) then
    Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "double free of VMA chunk");
  set_live cl index false;
  let shard = cl.shards.(core mod Array.length cl.shards) in
  shard.cache <- { index; phys } :: shard.cache;
  shard.cached <- shard.cached + 1;
  t.live <- t.live - 1;
  (* Overfull shard: release a batch back to the shared list. *)
  let spill =
    if shard.cached > 2 * t.shard_batch then begin
      let rec take n acc =
        if n = 0 then acc
        else
          match shard.cache with
          | [] -> acc
          | c :: rest ->
              shard.cache <- rest;
              shard.cached <- shard.cached - 1;
              take (n - 1) (c :: acc)
      in
      let batch = take t.shard_batch [] in
      cl.free <- batch @ cl.free;
      Jord_arch.Memsys.atomic memsys ~core ~addr:cl.shared_head
    end
    else 0.0
  in
  Jord_arch.Memsys.write memsys ~core ~addr:phys
  +. Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr
  +. spill

let live_chunks t = t.live

let allocations_by_class t =
  Array.to_list
    (Array.mapi (fun i n -> (Jord_vm.Size_class.of_index i, n)) t.alloc_counts)
  |> List.filter (fun (_, n) -> n > 0)

let small_allocation_share t ~bytes =
  let total = Array.fold_left ( + ) 0 t.alloc_counts in
  if total = 0 then 0.0
  else begin
    let small = ref 0 in
    Array.iteri
      (fun i n ->
        if Jord_vm.Size_class.bytes (Jord_vm.Size_class.of_index i) <= bytes then
          small := !small + n)
      t.alloc_counts;
    float_of_int !small /. float_of_int total
  end
