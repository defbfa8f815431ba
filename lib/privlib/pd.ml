type status = Idle | Running of int | Suspended

type shard = { mutable ids : int list; mutable cached : int; head_addr : int }

type last = { mutable alloc_ns : float }

type t = {
  max_pds : int;
  mutable free : int list;
  live : Jord_util.Bitset.t; (* allocated ids *)
  mutable status : status array; (* by id, grown to the highest id handed out *)
  last : last;
  shared_head : int;
  shards : shard array;
  batch : int;
}

let pd_table_base = 1 lsl 42
let config_addr id = pd_table_base + (id * 64)

let create ?(max_pds = 4096) ?(cores = 512) () =
  if max_pds < 2 then invalid_arg "Pd.create";
  {
    max_pds;
    (* PD 0 is the root domain and is never handed out. *)
    free = List.init (max_pds - 1) (fun i -> i + 1);
    live = Jord_util.Bitset.create max_pds;
    status = Array.make 64 Idle;
    last = { alloc_ns = 0.0 };
    shared_head = pd_table_base - 64;
    shards =
      Array.init cores (fun core ->
          { ids = []; cached = 0; head_addr = pd_table_base - ((core + 2) * 64) });
    batch = 8;
  }

let alloc t ~memsys ~core =
  let shard = t.shards.(core mod Array.length t.shards) in
  let extra =
    if shard.ids = [] then begin
      (* Detach a batch of ids from the shared list (one atomic). *)
      let rec take n acc =
        if n = 0 then acc
        else
          match t.free with
          | [] -> acc
          | id :: rest ->
              t.free <- rest;
              take (n - 1) (id :: acc)
      in
      let batch = take t.batch [] in
      if batch = [] then
        Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "out of PD ids");
      shard.ids <- batch;
      shard.cached <- List.length batch;
      Jord_arch.Memsys.atomic memsys ~core ~addr:t.shared_head
    end
    else 0.0
  in
  match shard.ids with
  | [] -> Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "out of PD ids")
  | id :: rest ->
      shard.ids <- rest;
      shard.cached <- shard.cached - 1;
      Jord_util.Bitset.add t.live id;
      let n = Array.length t.status in
      if id >= n then begin
        let grown = Array.make (Jord_util.Bits.ceil_pow2 (id + 1)) Idle in
        Array.blit t.status 0 grown 0 n;
        t.status <- grown
      end;
      t.status.(id) <- Idle;
      (* Pop from the core-local shard + initialization of the config line. *)
      let lat =
        extra
        +. Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr
        +. Jord_arch.Memsys.write memsys ~core ~addr:(config_addr id)
      in
      t.last.alloc_ns <- lat;
      id

let alloc_ns t = t.last.alloc_ns

let check_live t id =
  if id <= 0 || id >= t.max_pds then
    Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "invalid PD id");
  if not (Jord_util.Bitset.mem t.live id) then
    Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "PD not allocated");
  t.status.(id)

let status t id = check_live t id

let free t ~memsys ~core id =
  (match check_live t id with
  | Running _ ->
      Jord_vm.Fault.raise_fault (Jord_vm.Fault.Bad_handle "cannot destroy a running PD")
  | Idle | Suspended -> ());
  Jord_util.Bitset.remove t.live id;
  let shard = t.shards.(core mod Array.length t.shards) in
  shard.ids <- id :: shard.ids;
  shard.cached <- shard.cached + 1;
  let spill =
    if shard.cached > 2 * t.batch then begin
      let rec take n acc =
        if n = 0 then acc
        else
          match shard.ids with
          | [] -> acc
          | i :: rest ->
              shard.ids <- rest;
              shard.cached <- shard.cached - 1;
              take (n - 1) (i :: acc)
      in
      t.free <- take t.batch [] @ t.free;
      Jord_arch.Memsys.atomic memsys ~core ~addr:t.shared_head
    end
    else 0.0
  in
  Jord_arch.Memsys.write memsys ~core ~addr:(config_addr id)
  +. Jord_arch.Memsys.write memsys ~core ~addr:shard.head_addr
  +. spill

let set_status t id s =
  ignore (check_live t id);
  t.status.(id) <- s

let is_live t id = id >= 0 && id < t.max_pds && Jord_util.Bitset.mem t.live id
let live_count t = Jord_util.Bitset.cardinal t.live
