module Vm = Jord_vm

type category = Vma_mgmt | Pd_mgmt

type op =
  | Op_mmap
  | Op_munmap
  | Op_mprotect
  | Op_pmove
  | Op_pcopy
  | Op_cget
  | Op_cput
  | Op_ccall
  | Op_creturn
  | Op_cexit
  | Op_center

let all_ops =
  [
    Op_mmap; Op_munmap; Op_mprotect; Op_pmove; Op_pcopy; Op_cget; Op_cput;
    Op_ccall; Op_creturn; Op_cexit; Op_center;
  ]

let op_index = function
  | Op_mmap -> 0
  | Op_munmap -> 1
  | Op_mprotect -> 2
  | Op_pmove -> 3
  | Op_pcopy -> 4
  | Op_cget -> 5
  | Op_cput -> 6
  | Op_ccall -> 7
  | Op_creturn -> 8
  | Op_cexit -> 9
  | Op_center -> 10

let op_name = function
  | Op_mmap -> "mmap"
  | Op_munmap -> "munmap"
  | Op_mprotect -> "mprotect"
  | Op_pmove -> "pmove"
  | Op_pcopy -> "pcopy"
  | Op_cget -> "cget"
  | Op_cput -> "cput"
  | Op_ccall -> "ccall"
  | Op_creturn -> "creturn"
  | Op_cexit -> "cexit"
  | Op_center -> "center"

let n_ops = List.length all_ops

(* Float accumulators in an all-float record are stored unboxed. *)
type ns = {
  mutable vma_ns : float;
  mutable pd_ns : float;
  mutable lookup_ns : float; (* latency of the latest [resolve_owned] *)
}

type t = {
  hw : Vm.Hw.t;
  os : Os_facade.t;
  fl : Free_list.t;
  pds : Pd.t;
  mutable code_va : int option; (* PrivLib's own code VMA (I-VLB pressure) *)
  mutable grants : int array; (* outstanding VMA permissions by PD id *)
  ns : ns;
  mutable vma_calls : int;
  mutable pd_calls : int;
  op_calls : int array; (* per-op call counts, indexed by op_index *)
  op_ns : float array; (* per-op cumulative latency *)
}

(* Straight-line instruction budgets for each API body (gate entry, policy
   checks, bookkeeping), calibrated so the measured latencies land near
   Table 4 under the Simulator profile. The memory-system traffic on top of
   these comes from the live data structures. *)
let gate_instrs = 14
let mmap_instrs = 110
let munmap_instrs = 90
let mprotect_instrs = 80
let pmove_instrs = 85
let pcopy_instrs = 85
let cget_instrs = 55
let cput_instrs = 65
let ccall_instrs = 95
let creturn_instrs = 48
let cexit_instrs = 58
let center_instrs = 75

let hw t = t.hw
let code_vma t = t.code_va
let pds t = t.pds
let free_lists t = t.fl
let mmu t ~core = Vm.Hw.mmu t.hw ~core
let caller_pd t ~core = Vm.Mmu.ucid (mmu t ~core)

(* Model the uatg gate entry: sets the P bit for the duration of the call and
   fetches the first PrivLib instructions (I-VLB pressure on tiny VLBs). *)
let enter t ~core =
  Vm.Mmu.enter_privileged (mmu t ~core) ~at_gate:true;
  match t.code_va with
  | Some va -> Vm.Hw.translate t.hw ~core ~va ~access:Vm.Perm.Exec ~kind:`Instr
  | None -> 0.0

let leave t ~core = Vm.Mmu.exit_privileged (mmu t ~core)

(* Run an API body inside the gate. The P bit is cleared on every exit path,
   the gate entry's own code fetch included: when a security-policy check
   or a translation faults, the hardware tears the privileged context down
   before delivering the fault, so a failed call must never leave the core
   privileged. *)
let with_gate t ~core f =
  match enter t ~core with
  | exception exn ->
      (* [Hw.translate] already counted its fault. *)
      leave t ~core;
      raise exn
  | gate_ns -> (
      match f gate_ns with
      | r ->
          leave t ~core;
          r
      | exception (Vm.Fault.Fault fl as exn) ->
          (* Policy rejections are faults too: count them with the
             hardware's fault classes so telemetry sees the whole fault
             surface. *)
          Vm.Hw.note_fault t.hw fl;
          leave t ~core;
          raise exn
      | exception exn ->
          leave t ~core;
          raise exn)

let account t cat op ns =
  (match cat with
  | Vma_mgmt ->
      t.ns.vma_ns <- t.ns.vma_ns +. ns;
      t.vma_calls <- t.vma_calls + 1
  | Pd_mgmt ->
      t.ns.pd_ns <- t.ns.pd_ns +. ns;
      t.pd_calls <- t.pd_calls + 1);
  let i = op_index op in
  t.op_calls.(i) <- t.op_calls.(i) + 1;
  t.op_ns.(i) <- t.op_ns.(i) +. ns

let time_in t = function Vma_mgmt -> t.ns.vma_ns | Pd_mgmt -> t.ns.pd_ns
let call_count t = function Vma_mgmt -> t.vma_calls | Pd_mgmt -> t.pd_calls
let op_count t op = t.op_calls.(op_index op)
let op_ns t op = t.op_ns.(op_index op)

let reset_accounting t =
  t.ns.vma_ns <- 0.0;
  t.ns.pd_ns <- 0.0;
  t.vma_calls <- 0;
  t.pd_calls <- 0;
  Array.fill t.op_calls 0 n_ops 0;
  Array.fill t.op_ns 0 n_ops 0.0

(* Telemetry wiring: per-op call counts and cumulative in-PrivLib time, as
   pull collectors over the accounting arrays (Table 1 / Fig. 11 signals). *)
let register_metrics t ?(labels = []) reg =
  let open Jord_telemetry.Registry in
  List.iter
    (fun op ->
      let l = labels @ [ ("op", op_name op) ] in
      counter_fn reg ~help:"PrivLib calls by API" ~labels:l "jord_privlib_calls_total"
        (fun () -> float_of_int (op_count t op));
      counter_fn reg ~help:"Cumulative time inside PrivLib by API (ns)" ~labels:l
        "jord_privlib_ns_total" (fun () -> op_ns t op))
    all_ops;
  List.iter
    (fun (cat, name) ->
      let l = labels @ [ ("category", name) ] in
      counter_fn reg ~help:"PrivLib calls by category" ~labels:l
        "jord_privlib_category_calls_total" (fun () -> float_of_int (call_count t cat));
      counter_fn reg ~help:"Cumulative PrivLib time by category (ns)" ~labels:l
        "jord_privlib_category_ns_total" (fun () -> time_in t cat))
    [ (Vma_mgmt, "vma_mgmt"); (Pd_mgmt, "pd_mgmt") ];
  gauge_fn reg ~help:"Outstanding VMA grants across non-root PDs" ~labels
    "jord_privlib_outstanding_grants" (fun () ->
      float_of_int (Array.fold_left ( + ) 0 t.grants))

let store t = Vm.Hw.store t.hw
let footprint t = Vm.Vma_store.footprint (store t)

(* Find the VTE covering [va], charging the lookup (its latency is left in
   [t.ns.lookup_ns]), with policy check: the subject PD must hold some
   permission on the VMA — and acting on behalf of a foreign PD is reserved
   to the trusted runtime in PD 0. *)
let resolve_owned t ~core ~subject ~va =
  let caller = caller_pd t ~core in
  if subject <> caller && caller <> 0 then
    Vm.Fault.raise_fault (Vm.Fault.Bad_handle "acting on a foreign PD is executor-only");
  let vte = Vm.Vma_store.lookup (store t) ~va in
  t.ns.lookup_ns <- Vm.Hw.charge_footprint t.hw ~core (footprint t);
  match vte with
  | None -> Vm.Fault.raise_fault (Vm.Fault.Unmapped va)
  | Some vte ->
      let owned =
        (not (Vm.Perm.equal (Vm.Vte.perm_for vte ~pd:subject) Vm.Perm.none))
        || Vm.Vte.global_perm vte <> None
        || caller = 0
      in
      if not owned then
        Vm.Fault.raise_fault (Vm.Fault.Bad_handle "caller holds no permission on VMA");
      vte

let check_dst_pd t pd = if pd = 0 then () else ignore (Pd.status t.pds pd)

(* Track how many VMA permissions each non-root PD holds: destroying a PD
   that still holds permissions would let a recycled PD id inherit them, so
   [cput] rejects it (the Figure-4 teardown always revokes first). *)
let outstanding_grants t pd =
  if pd > 0 && pd < Array.length t.grants then t.grants.(pd) else 0

(* A count that would drop to zero or below means no grant. Ids past the
   array grow it by doubling; ids below 1 name no countable PD. *)
let bump_grants t pd delta =
  if pd > 0 then begin
    let n = Array.length t.grants in
    if pd >= n then begin
      let grown = Array.make (Jord_util.Bits.ceil_pow2 (pd + 1)) 0 in
      Array.blit t.grants 0 grown 0 n;
      t.grants <- grown
    end;
    t.grants.(pd) <- Int.max 0 (t.grants.(pd) + delta)
  end

(* Apply a permission change on [vte] for [pd], keeping the grant counter in
   sync with whether the PD holds an entry. *)
let set_perm_tracked t vte ~pd perm =
  let had = Vm.Vte.has_pd vte ~pd in
  Vm.Vte.set_perm vte ~pd perm;
  let has = Vm.Vte.has_pd vte ~pd in
  if has && not had then bump_grants t pd 1
  else if had && not has then bump_grants t pd (-1)

let mmap t ~core ~bytes ~perm ?(privileged = false) ?(global_perm = None) () =
  with_gate t ~core (fun gate_ns ->
      if (privileged || global_perm <> None) && caller_pd t ~core <> 0 then
        Vm.Fault.raise_fault (Vm.Fault.Bad_handle "special mappings are executor-only");
      let sc = Vm.Size_class.of_size bytes in
      let chunk = Free_list.alloc t.fl ~memsys:(Vm.Hw.memsys t.hw) ~core sc in
      let alloc_ns = Free_list.alloc_ns t.fl in
      let va_cfg = Vm.Hw.va_cfg t.hw in
      let base = Vm.Va.encode va_cfg sc ~index:chunk.Free_list.index ~offset:0 in
      let vte =
        Vm.Vte.create ~base ~bytes ~phys:chunk.Free_list.phys ~global_perm ~privileged ()
      in
      set_perm_tracked t vte ~pd:(caller_pd t ~core) perm;
      Vm.Vma_store.insert (store t) vte;
      let lat =
        gate_ns
        +. Vm.Hw.instr_ns t.hw (gate_instrs + mmap_instrs)
        +. alloc_ns
        +. Vm.Hw.charge_footprint t.hw ~core (footprint t)
      in
      account t Vma_mgmt Op_mmap lat;
      (base, lat))

let munmap t ~core ~va =
  with_gate t ~core (fun gate_ns ->
      let vte = resolve_owned t ~core ~subject:(caller_pd t ~core) ~va in
      let lookup_ns = t.ns.lookup_ns in
      if Vm.Vte.privileged vte then
        Vm.Fault.raise_fault (Vm.Fault.Bad_handle "cannot unmap a privileged VMA");
      let base = Vm.Vte.base vte in
      Vm.Vte.iter_sharers (fun pd -> bump_grants t pd (-1)) vte;
      ignore (Vm.Vma_store.remove (store t) ~va:base : Vm.Vte.t option);
      let sd = Vm.Hw.shootdown t.hw ~core ~va:base in
      let slot = Vm.Va.vte_slot (Vm.Hw.va_cfg t.hw) base in
      if slot < 0 then Vm.Fault.raise_fault (Vm.Fault.Unmapped base);
      let free_ns =
        Free_list.free t.fl ~memsys:(Vm.Hw.memsys t.hw) ~core (Vm.Va.slot_class slot)
          ~index:(Vm.Va.slot_index slot) ~phys:(Vm.Vte.phys vte)
      in
      let lat =
        gate_ns
        +. Vm.Hw.instr_ns t.hw (gate_instrs + munmap_instrs)
        +. lookup_ns
        +. Vm.Hw.charge_footprint t.hw ~core (footprint t)
        +. sd +. free_ns
      in
      account t Vma_mgmt Op_munmap lat;
      lat)

(* Shared tail of the three permission-updating calls: charge the structure
   update and the hardware shootdown for the rewritten VTE. *)
let update_vte t ~core ~base =
  Vm.Vma_store.update (store t) ~va:base;
  Vm.Hw.charge_footprint t.hw ~core (footprint t) +. Vm.Hw.shootdown t.hw ~core ~va:base

let mprotect t ~core ?pd ~va ~perm () =
  with_gate t ~core (fun gate_ns ->
      let subject = match pd with Some p -> p | None -> caller_pd t ~core in
      let vte = resolve_owned t ~core ~subject ~va in
      let lookup_ns = t.ns.lookup_ns in
      set_perm_tracked t vte ~pd:subject perm;
      let lat =
        gate_ns
        +. Vm.Hw.instr_ns t.hw (gate_instrs + mprotect_instrs)
        +. lookup_ns
        +. update_vte t ~core ~base:(Vm.Vte.base vte)
      in
      account t Vma_mgmt Op_mprotect lat;
      lat)

let transfer t ~core ~src_pd ~va ~dst_pd ~perm ~keep_src ~instrs ~op =
  with_gate t ~core (fun gate_ns ->
      check_dst_pd t dst_pd;
      let src_pd = match src_pd with Some p -> p | None -> caller_pd t ~core in
      let vte = resolve_owned t ~core ~subject:src_pd ~va in
      let lookup_ns = t.ns.lookup_ns in
      let src_perm = Vm.Vte.perm_for vte ~pd:src_pd in
      let privileged_caller = caller_pd t ~core = 0 in
      if
        (not (Vm.Perm.subsumes src_perm perm))
        && Vm.Vte.global_perm vte = None
        && not privileged_caller
      then
        Vm.Fault.raise_fault (Vm.Fault.Bad_handle "cannot grant rights the caller lacks");
      set_perm_tracked t vte ~pd:dst_pd perm;
      if not keep_src then set_perm_tracked t vte ~pd:src_pd Vm.Perm.none;
      let lat =
        gate_ns
        +. Vm.Hw.instr_ns t.hw (gate_instrs + instrs)
        +. lookup_ns
        +. update_vte t ~core ~base:(Vm.Vte.base vte)
      in
      account t Vma_mgmt op lat;
      lat)

let pmove t ~core ?src_pd ~va ~dst_pd ~perm () =
  transfer t ~core ~src_pd ~va ~dst_pd ~perm ~keep_src:false ~instrs:pmove_instrs
    ~op:Op_pmove

let pcopy t ~core ~va ~dst_pd ~perm =
  transfer t ~core ~src_pd:None ~va ~dst_pd ~perm ~keep_src:true ~instrs:pcopy_instrs
    ~op:Op_pcopy

let require_executor t ~core what =
  if caller_pd t ~core <> 0 then
    Vm.Fault.raise_fault (Vm.Fault.Bad_handle (what ^ " is executor-only"))

let cget t ~core =
  with_gate t ~core (fun gate_ns ->
      require_executor t ~core "cget";
      let id = Pd.alloc t.pds ~memsys:(Vm.Hw.memsys t.hw) ~core in
      let alloc_ns = Pd.alloc_ns t.pds in
      let lat = gate_ns +. Vm.Hw.instr_ns t.hw (gate_instrs + cget_instrs) +. alloc_ns in
      account t Pd_mgmt Op_cget lat;
      (id, lat))

let cput t ~core ~pd =
  with_gate t ~core (fun gate_ns ->
      require_executor t ~core "cput";
      if outstanding_grants t pd > 0 then
        Vm.Fault.raise_fault
          (Vm.Fault.Bad_handle "cput: PD still holds VMA permissions");
      let free_ns = Pd.free t.pds ~memsys:(Vm.Hw.memsys t.hw) ~core pd in
      let lat = gate_ns +. Vm.Hw.instr_ns t.hw (gate_instrs + cput_instrs) +. free_ns in
      account t Pd_mgmt Op_cput lat;
      lat)

(* Context switches: save/restore of the register file to/from the PD's
   config line plus the ucid CSR write. *)
let switch_cost t ~core ~pd ~instrs =
  Vm.Hw.instr_ns t.hw (gate_instrs + instrs)
  +. Jord_arch.Memsys.write (Vm.Hw.memsys t.hw) ~core ~addr:(Pd.config_addr pd)

let ccall t ~core ~pd =
  with_gate t ~core (fun gate_ns ->
      require_executor t ~core "ccall";
      (match Pd.status t.pds pd with
      | Pd.Idle -> ()
      | Pd.Running _ ->
          Vm.Fault.raise_fault (Vm.Fault.Bad_handle "ccall target already running")
      | Pd.Suspended ->
          Vm.Fault.raise_fault
            (Vm.Fault.Bad_handle "ccall target suspended; use center"));
      Pd.set_status t.pds pd (Pd.Running core);
      let lat = gate_ns +. switch_cost t ~core ~pd ~instrs:ccall_instrs in
      Vm.Mmu.write_ucid (mmu t ~core) pd;
      account t Pd_mgmt Op_ccall lat;
      lat)

let current_running_pd t ~core what =
  let pd = caller_pd t ~core in
  if pd = 0 then
    Vm.Fault.raise_fault (Vm.Fault.Bad_handle (what ^ ": not inside a PD"));
  (match Pd.status t.pds pd with
  | Pd.Running c when c = core -> ()
  | Pd.Running _ | Pd.Idle | Pd.Suspended ->
      Vm.Fault.raise_fault
        (Vm.Fault.Bad_handle (what ^ ": PD not running on this core")));
  pd

let creturn t ~core =
  with_gate t ~core (fun gate_ns ->
      let pd = current_running_pd t ~core "creturn" in
      Pd.set_status t.pds pd Pd.Idle;
      let lat = gate_ns +. switch_cost t ~core ~pd ~instrs:creturn_instrs in
      Vm.Mmu.write_ucid (mmu t ~core) 0;
      account t Pd_mgmt Op_creturn lat;
      lat)

let cexit t ~core =
  with_gate t ~core (fun gate_ns ->
      let pd = current_running_pd t ~core "cexit" in
      Pd.set_status t.pds pd Pd.Suspended;
      let lat = gate_ns +. switch_cost t ~core ~pd ~instrs:cexit_instrs in
      Vm.Mmu.write_ucid (mmu t ~core) 0;
      account t Pd_mgmt Op_cexit lat;
      lat)

let center t ~core ~pd =
  with_gate t ~core (fun gate_ns ->
      require_executor t ~core "center";
      (match Pd.status t.pds pd with
      | Pd.Suspended -> ()
      | Pd.Idle | Pd.Running _ ->
          Vm.Fault.raise_fault (Vm.Fault.Bad_handle "center target not suspended"));
      Pd.set_status t.pds pd (Pd.Running core);
      let lat = gate_ns +. switch_cost t ~core ~pd ~instrs:center_instrs in
      Vm.Mmu.write_ucid (mmu t ~core) pd;
      account t Pd_mgmt Op_center lat;
      lat)

let create ~hw ~os =
  let t =
    {
      hw;
      os;
      fl = Free_list.create ~os ~va_cfg:(Vm.Hw.va_cfg hw) ();
      pds = Pd.create ();
      code_va = None;
      grants = Array.make 64 0;
      ns = { vma_ns = 0.0; pd_ns = 0.0; lookup_ns = 0.0 };
      vma_calls = 0;
      pd_calls = 0;
      op_calls = Array.make n_ops 0;
      op_ns = Array.make n_ops 0.0;
    }
  in
  (* OS bootstrap: PrivLib's own code, stack and heap live in privileged
     VMAs that only privileged code can touch; they are visible from every
     PD so PrivLib can run regardless of ucid. *)
  let boot bytes perm =
    let va, _ =
      mmap t ~core:0 ~bytes ~perm ~privileged:true ~global_perm:(Some perm) ()
    in
    va
  in
  let code_va = boot (256 * 1024) Vm.Perm.rx (* PrivLib code *) in
  let (_ : int) = boot (64 * 1024) Vm.Perm.rw (* PrivLib stacks *) in
  let (_ : int) = boot (1024 * 1024) Vm.Perm.rw (* PrivLib heap *) in
  t.code_va <- Some code_va;
  reset_accounting t;
  t
