module Vm = Jord_vm
module Pl = Jord_privlib.Privlib

(* All-float, so OCaml stores the fields unboxed and overwriting them
   allocates nothing. *)
type cost = { mutable isolation_ns : float; mutable comm_ns : float }

let cost () = { isolation_ns = 0.0; comm_ns = 0.0 }
let total c = c.isolation_ns +. c.comm_ns

let set c ~iso ~comm =
  c.isolation_ns <- iso;
  c.comm_ns <- comm

let iso c ns = set c ~iso:ns ~comm:0.0
let comm c ns = set c ~iso:0.0 ~comm:ns
let zero c = set c ~iso:0.0 ~comm:0.0

type t = {
  variant : Variant.t;
  hw : Vm.Hw.t;
  priv : Pl.t;
  nc : Jord_baseline.Nightcore.t;
  mutable code_vmas : (string * int) array;
      (* Registered code VMAs, scanned by name: a handful of functions, so
         a scan beats hashing the name on every setup and teardown. *)
}

let create ~variant ~hw ~priv ~nc = { variant; hw; priv; nc; code_vmas = [||] }

let variant t = t.variant
let hw t = t.hw
let priv t = t.priv
let nc t = t.nc
let response_bytes = 256

(* Slot of a registered function's code VMA, or -1. *)
let code_slot t name =
  let n = Array.length t.code_vmas in
  let i = ref 0 in
  while
    !i < n
    &&
    let key = fst t.code_vmas.(!i) in
    not (key == name || String.equal key name)
  do
    incr i
  done;
  if !i < n then !i else -1

let register_function t ~core fn =
  let va =
    match t.variant with
    | Variant.Nightcore -> 0
    | Variant.Jord | Variant.Jord_ni | Variant.Jord_bt ->
        let global =
          (* Without isolation, code is executable from everywhere. *)
          if Variant.isolated t.variant then None else Some Vm.Perm.rx
        in
        fst
          (Pl.mmap t.priv ~core ~bytes:fn.Model.code_bytes ~perm:Vm.Perm.rx
             ~global_perm:global ())
  in
  let name = fn.Model.name in
  let i = code_slot t name in
  if i >= 0 then t.code_vmas.(i) <- (name, va)
  else t.code_vmas <- Array.append t.code_vmas [| (name, va) |]

let code_va t name =
  let i = code_slot t name in
  if i < 0 then invalid_arg (Printf.sprintf "Runtime.code_va: %S not registered" name);
  snd t.code_vmas.(i)

(* Allocate a VMA usable as an ArgBuf. Under isolation it belongs to the
   caller's PD; without isolation it is globally accessible. *)
let mmap_argbuf t ~core ~bytes =
  let global = if Variant.isolated t.variant then None else Some Vm.Perm.rw in
  Pl.mmap t.priv ~core ~bytes ~perm:Vm.Perm.rw ~global_perm:global ()

let write_data t ~core ~va ~bytes =
  Vm.Hw.access t.hw ~core ~va ~access:Vm.Perm.Write ~kind:`Data ~bytes

let read_data t ~core ~va ~bytes =
  Vm.Hw.access t.hw ~core ~va ~access:Vm.Perm.Read ~kind:`Data ~bytes

let make_argbuf t ~core ~bytes c =
  match t.variant with
  | Variant.Nightcore ->
      (* Payload staged into shm at invoke time. *)
      comm c (Jord_baseline.Shm.transfer_ns t.nc.Jord_baseline.Nightcore.shm ~bytes);
      0
  | Variant.Jord | Variant.Jord_bt ->
      let va, mmap_ns = mmap_argbuf t ~core ~bytes in
      let w = write_data t ~core ~va ~bytes in
      let mv = Pl.pmove t.priv ~core ~va ~dst_pd:0 ~perm:Vm.Perm.rw () in
      set c ~iso:(mmap_ns +. mv) ~comm:w;
      va
  | Variant.Jord_ni ->
      let va, mmap_ns = mmap_argbuf t ~core ~bytes in
      let w = write_data t ~core ~va ~bytes in
      set c ~iso:mmap_ns ~comm:w;
      va

(* Runs executor-side (PD 0), just before the parent is resumed: grant the
   parent a view of the completed child's ArgBuf, read the response on its
   behalf and release the buffer. *)
let reap_argbuf t ~core ~pd ~va ~bytes:_ c =
  match t.variant with
  | Variant.Nightcore ->
      comm c (Jord_baseline.Nightcore.output_ns t.nc ~bytes:response_bytes)
  | Variant.Jord | Variant.Jord_bt ->
      let cp = Pl.pcopy t.priv ~core ~va ~dst_pd:pd ~perm:Vm.Perm.rw in
      let r = read_data t ~core ~va ~bytes:response_bytes in
      let un = Pl.munmap t.priv ~core ~va in
      set c ~iso:(cp +. un) ~comm:r
  | Variant.Jord_ni ->
      let r = read_data t ~core ~va ~bytes:response_bytes in
      let un = Pl.munmap t.priv ~core ~va in
      set c ~iso:un ~comm:r

let setup t ~core ~fn ~argbuf ~arg_bytes c =
  match t.variant with
  | Variant.Nightcore ->
      (* Worker side: pipe read syscall, worker prep, input copy from shm. *)
      set c
        ~iso:
          (t.nc.Jord_baseline.Nightcore.worker_prep_ns
          +. t.nc.Jord_baseline.Nightcore.pipe.Jord_baseline.Pipe.syscall_ns)
        ~comm:(Jord_baseline.Nightcore.input_ns t.nc ~bytes:arg_bytes);
      (0, 0)
  | Variant.Jord | Variant.Jord_bt ->
      let code = code_va t fn.Model.name in
      let pd, cget_ns = Pl.cget t.priv ~core in
      let state_va, mmap_ns =
        Pl.mmap t.priv ~core ~bytes:fn.Model.state_bytes ~perm:Vm.Perm.rw ()
      in
      let grant_state = Pl.pmove t.priv ~core ~va:state_va ~dst_pd:pd ~perm:Vm.Perm.rw () in
      let grant_code = Pl.pcopy t.priv ~core ~va:code ~dst_pd:pd ~perm:Vm.Perm.rx in
      let grant_arg = Pl.pmove t.priv ~core ~src_pd:0 ~va:argbuf ~dst_pd:pd ~perm:Vm.Perm.rw () in
      let call_ns = Pl.ccall t.priv ~core ~pd in
      (* First touches inside the PD: code fetch, stack write, input read. *)
      let code_touch =
        Vm.Hw.access t.hw ~core ~va:code ~access:Vm.Perm.Exec ~kind:`Instr ~bytes:64
      in
      let stack_touch = write_data t ~core ~va:state_va ~bytes:128 in
      let input = read_data t ~core ~va:argbuf ~bytes:arg_bytes in
      let isolation =
        cget_ns +. mmap_ns +. grant_state +. grant_code +. grant_arg +. call_ns
      in
      set c ~iso:isolation ~comm:(code_touch +. stack_touch +. input);
      (pd, state_va)
  | Variant.Jord_ni ->
      let code = code_va t fn.Model.name in
      let state_va, mmap_ns =
        Pl.mmap t.priv ~core ~bytes:fn.Model.state_bytes ~perm:Vm.Perm.rw
          ~global_perm:(Some Vm.Perm.rw) ()
      in
      let code_touch =
        Vm.Hw.access t.hw ~core ~va:code ~access:Vm.Perm.Exec ~kind:`Instr ~bytes:64
      in
      let stack_touch = write_data t ~core ~va:state_va ~bytes:128 in
      let input = read_data t ~core ~va:argbuf ~bytes:arg_bytes in
      set c ~iso:mmap_ns ~comm:(code_touch +. stack_touch +. input);
      (0, state_va)

let teardown t ~core ~fn ~pd ~state_va ~argbuf c =
  match t.variant with
  | Variant.Nightcore ->
      comm c (Jord_baseline.Nightcore.output_ns t.nc ~bytes:response_bytes)
  | Variant.Jord | Variant.Jord_bt ->
      let output = write_data t ~core ~va:argbuf ~bytes:response_bytes in
      let ret = Pl.creturn t.priv ~core in
      let reclaim_arg = Pl.pmove t.priv ~core ~src_pd:pd ~va:argbuf ~dst_pd:0 ~perm:Vm.Perm.rw () in
      let revoke_code =
        Pl.mprotect t.priv ~core ~pd ~va:(code_va t fn.Model.name) ~perm:Vm.Perm.none ()
      in
      let unmap_state = Pl.munmap t.priv ~core ~va:state_va in
      let put = Pl.cput t.priv ~core ~pd in
      set c ~iso:(ret +. reclaim_arg +. revoke_code +. unmap_state +. put) ~comm:output
  | Variant.Jord_ni ->
      let output = write_data t ~core ~va:argbuf ~bytes:response_bytes in
      let unmap_state = Pl.munmap t.priv ~core ~va:state_va in
      set c ~iso:unmap_state ~comm:output

(* True when [pd] is a cexit'd (suspended) protection domain. False for
   PDs currently entered on a core and for variants without PDs; callers
   use it to abort each core's entered PD before any suspended one. *)
let pd_suspended t ~pd =
  match t.variant with
  | Variant.Jord | Variant.Jord_bt ->
      pd > 0
      && Jord_privlib.Pd.status (Pl.pds t.priv) pd = Jord_privlib.Pd.Suspended
  | Variant.Nightcore | Variant.Jord_ni -> false

(* Groundhog-style rollback of a crashed invocation: like [teardown] minus
   the output write — the PD, its state VMA and the code grant are torn
   down, but the ArgBuf goes back to PD 0 intact so the request can be
   re-executed elsewhere from its original input. *)
let abort t ~core ~fn ~pd ~state_va ~argbuf c =
  match t.variant with
  | Variant.Nightcore ->
      (* The worker thread dies; its replacement pays prep again at setup. *)
      iso c t.nc.Jord_baseline.Nightcore.worker_prep_ns
  | Variant.Jord | Variant.Jord_bt ->
      (* A suspended invocation (cexit'd, waiting on children) must be
         re-entered before its context can be torn down — the gate's
         creturn only works from inside a running PD. *)
      let reenter =
        match Jord_privlib.Pd.status (Pl.pds t.priv) pd with
        | Jord_privlib.Pd.Suspended -> Pl.center t.priv ~core ~pd
        | _ -> 0.0
      in
      let ret = Pl.creturn t.priv ~core in
      let reclaim_arg =
        Pl.pmove t.priv ~core ~src_pd:pd ~va:argbuf ~dst_pd:0 ~perm:Vm.Perm.rw ()
      in
      let revoke_code =
        Pl.mprotect t.priv ~core ~pd ~va:(code_va t fn.Model.name) ~perm:Vm.Perm.none ()
      in
      let unmap_state = Pl.munmap t.priv ~core ~va:state_va in
      let put = Pl.cput t.priv ~core ~pd in
      iso c (reenter +. ret +. reclaim_arg +. revoke_code +. unmap_state +. put)
  | Variant.Jord_ni -> iso c (Pl.munmap t.priv ~core ~va:state_va)

let suspend t ~core ~pd c =
  match t.variant with
  | Variant.Nightcore -> iso c (Jord_baseline.Nightcore.suspend_ns t.nc)
  | Variant.Jord | Variant.Jord_bt ->
      if pd = 0 then zero c else iso c (Pl.cexit t.priv ~core)
  | Variant.Jord_ni -> zero c

let resume t ~core ~pd c =
  match t.variant with
  | Variant.Nightcore -> iso c (Jord_baseline.Nightcore.resume_ns t.nc)
  | Variant.Jord | Variant.Jord_bt ->
      if pd = 0 then zero c else iso c (Pl.center t.priv ~core ~pd)
  | Variant.Jord_ni -> zero c

let invoke_send t ~core:_ ~bytes c =
  match t.variant with
  | Variant.Nightcore ->
      comm c (Jord_baseline.Pipe.sender_ns t.nc.Jord_baseline.Nightcore.pipe ~bytes)
  | Variant.Jord | Variant.Jord_ni | Variant.Jord_bt -> zero c

let external_input t ~core ~bytes c =
  match t.variant with
  | Variant.Nightcore ->
      comm c (Jord_baseline.Nightcore.input_ns t.nc ~bytes);
      0
  | Variant.Jord | Variant.Jord_bt | Variant.Jord_ni ->
      let va, mmap_ns = mmap_argbuf t ~core ~bytes in
      let w = write_data t ~core ~va ~bytes in
      set c ~iso:mmap_ns ~comm:w;
      va

let release_argbuf t ~core ~va ~bytes:_ c =
  match t.variant with
  | Variant.Nightcore -> zero c
  | Variant.Jord | Variant.Jord_bt | Variant.Jord_ni -> iso c (Pl.munmap t.priv ~core ~va)

(* Function-initiated dynamic VMA: mmap, touch, munmap (Listing 1's
   lines 19-23). Runs in the calling PD's context. *)
let scratch t ~core ~bytes c =
  match t.variant with
  | Variant.Nightcore ->
      (* A plain malloc/free in the worker process: cheap, no VM work. *)
      iso c 60.0
  | Variant.Jord | Variant.Jord_bt | Variant.Jord_ni ->
      let global = if Variant.isolated t.variant then None else Some Vm.Perm.rw in
      let va, mmap_ns = Pl.mmap t.priv ~core ~bytes ~perm:Vm.Perm.rw ~global_perm:global () in
      let w = write_data t ~core ~va ~bytes:(Int.min bytes 256) in
      let un = Pl.munmap t.priv ~core ~va in
      set c ~iso:(mmap_ns +. un) ~comm:w

(* Re-establish a function's warm state after a whole-server crash wiped
   it: re-fault the code image in from storage. Modeled as a transient
   mapping the size of the image, touched and unmapped — the registered
   code VMA itself survives (the address-space layout is durable state),
   so the VMA population returns to its floor and the conservation
   invariant still balances. *)
let rewarm t ~core ~fn c =
  match t.variant with
  | Variant.Nightcore ->
      (* A fresh worker process: pay prep once per function. *)
      iso c t.nc.Jord_baseline.Nightcore.worker_prep_ns
  | Variant.Jord | Variant.Jord_bt | Variant.Jord_ni ->
      let va, mmap_ns =
        Pl.mmap t.priv ~core ~bytes:fn.Model.code_bytes ~perm:Vm.Perm.rx ()
      in
      let touch =
        Vm.Hw.access t.hw ~core ~va ~access:Vm.Perm.Read ~kind:`Data
          ~bytes:(Int.min fn.Model.code_bytes 4096)
      in
      let un = Pl.munmap t.priv ~core ~va in
      set c ~iso:(mmap_ns +. un) ~comm:touch

let touch_working_set t ~core ~pd:_ ~fn ~state_va c =
  match t.variant with
  | Variant.Nightcore -> zero c
  | Variant.Jord | Variant.Jord_bt | Variant.Jord_ni ->
      let code = code_va t fn.Model.name in
      let cns =
        Vm.Hw.access t.hw ~core ~va:code ~access:Vm.Perm.Exec ~kind:`Instr ~bytes:64
      in
      let s = if state_va = 0 then 0.0 else write_data t ~core ~va:state_va ~bytes:64 in
      comm c (cns +. s)
