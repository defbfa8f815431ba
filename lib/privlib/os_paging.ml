module Vm = Jord_vm

type t = {
  pt : Vm.Page_table.t;
  tlbs : Vm.Tlb.t array;
  memsys : Jord_arch.Memsys.t;
  topo : Jord_arch.Topology.t;
  syscall_ns : float;
  ipi_setup_ns : float;
  ipi_handler_ns : float;
  mutable next_va : int;
  mutable next_phys : int;
}

(* The page-based half of the address space lives below the Jord Top tag. *)
let va_base = 1 lsl 30
let phys_base = 1 lsl 38

let create ?(syscall_ns = 420.0) ?(ipi_setup_ns = 160.0) ?(ipi_handler_ns = 750.0)
    ~memsys () =
  let topo = Jord_arch.Memsys.topology memsys in
  {
    pt = Vm.Page_table.create ();
    tlbs = Array.init (Jord_arch.Topology.cores topo) (fun _ -> Vm.Tlb.create ());
    memsys;
    topo;
    syscall_ns;
    ipi_setup_ns;
    ipi_handler_ns;
    next_va = va_base;
    next_phys = phys_base;
  }

let tlb t ~core = t.tlbs.(core)
let page = Vm.Page_table.page_bytes
let pages_of bytes = Jord_util.Bits.ceil_div bytes page

let charge_writes t ~core addrs =
  List.fold_left
    (fun acc addr -> acc +. Jord_arch.Memsys.write t.memsys ~core ~addr)
    0.0 addrs

let charge_reads t ~core addrs =
  List.fold_left
    (fun acc addr -> acc +. Jord_arch.Memsys.read t.memsys ~core ~addr)
    0.0 addrs

(* IPI shootdown: the initiator programs one IPI per target core (serial),
   then waits for the farthest target's interrupt handler to invalidate its
   TLB and acknowledge. *)
let shootdown_ns t ~initiator =
  let cores = Jord_arch.Topology.cores t.topo in
  let worst = ref 0.0 in
  for target = 0 to cores - 1 do
    if target <> initiator then begin
      Vm.Tlb.flush t.tlbs.(target);
      let rtt = 2.0 *. Jord_arch.Topology.latency_ns t.topo ~src:initiator ~dst:target in
      let d = rtt +. t.ipi_handler_ns in
      if d > !worst then worst := d
    end
  done;
  (float_of_int (cores - 1) *. t.ipi_setup_ns) +. !worst

let mmap t ~core ~bytes ~perm =
  let n = pages_of bytes in
  let va = t.next_va in
  t.next_va <- va + (n * page);
  let cost = ref (2.0 *. t.syscall_ns) in
  for i = 0 to n - 1 do
    let phys = t.next_phys in
    t.next_phys <- phys + page;
    let touched = Vm.Page_table.map t.pt ~va:(va + (i * page)) ~phys ~perm in
    cost := !cost +. charge_writes t ~core touched
  done;
  (va, !cost)

let mprotect t ~core ~va ~bytes ~perm =
  let n = pages_of bytes in
  let cost = ref (2.0 *. t.syscall_ns) in
  for i = 0 to n - 1 do
    let touched = Vm.Page_table.protect t.pt ~va:(va + (i * page)) ~perm in
    cost := !cost +. charge_writes t ~core touched
  done;
  ignore (Vm.Tlb.invalidate_page t.tlbs.(core) ~va);
  !cost +. shootdown_ns t ~initiator:core

let munmap t ~core ~va ~bytes =
  let n = pages_of bytes in
  let cost = ref (2.0 *. t.syscall_ns) in
  for i = 0 to n - 1 do
    let touched = Vm.Page_table.unmap t.pt ~va:(va + (i * page)) in
    cost := !cost +. charge_writes t ~core touched
  done;
  ignore (Vm.Tlb.invalidate_page t.tlbs.(core) ~va);
  !cost +. shootdown_ns t ~initiator:core

let translate t ~core ~va ~access =
  let check perm phys =
    if not (Vm.Perm.allows perm access) then
      Vm.Fault.raise_fault (Vm.Fault.Permission { va; pd = -1; need = access });
    phys
  in
  match Vm.Tlb.lookup t.tlbs.(core) ~va with
  | Some (phys_page, perm) ->
      (check perm (phys_page + (va land (page - 1))), 0.0)
  | None -> (
      let result, touched = Vm.Page_table.walk t.pt ~va in
      let walk_ns = charge_reads t ~core touched in
      match result with
      | Some (phys, perm) ->
          Vm.Tlb.fill t.tlbs.(core) ~va ~phys:(phys land lnot (page - 1)) ~perm;
          (check perm phys, walk_ns)
      | None -> Vm.Fault.raise_fault (Vm.Fault.Unmapped va))
