(** OS-mediated, page-based memory management — the world Jord escapes
    (paper §2.2).

    Implements mmap/mprotect/munmap over the traditional substrate: a
    syscall into the kernel, radix page-table edits charged through the
    memory system, and IPI-based TLB shootdowns that interrupt every core
    which may cache the mapping. Only the OS can touch the page table, so
    every operation round-trips through the kernel; the motivation
    experiment contrasts these microsecond-scale costs with PrivLib's
    nanosecond-scale VMA operations. *)

type t

val create :
  ?syscall_ns:float ->
  ?ipi_setup_ns:float ->
  ?ipi_handler_ns:float ->
  memsys:Jord_arch.Memsys.t ->
  unit ->
  t
(** Defaults: 420 ns syscall entry/exit, 160 ns serial IPI programming per
    target core, 750 ns interrupt entry + invlpg + ack at each target. *)

val mmap : t -> core:int -> bytes:int -> perm:Jord_vm.Perm.t -> int * float
(** Allocate and map fresh pages; returns [(va, ns)]. No shootdown needed
    (no core can have cached an unmapped VA). *)

val mprotect : t -> core:int -> va:int -> bytes:int -> perm:Jord_vm.Perm.t -> float
(** Change permissions: syscall + PTE rewrites + full-machine shootdown. *)

val munmap : t -> core:int -> va:int -> bytes:int -> float
(** Unmap: syscall + PTE clears + full-machine shootdown. *)

val translate :
  t -> core:int -> va:int -> access:Jord_vm.Perm.access -> int * float
(** TLB hierarchy lookup, hardware page walk on miss (4 dependent table
    reads through the caches). Returns [(phys, ns)].
    @raise Jord_vm.Fault.Fault on unmapped or denied access. *)

val shootdown_ns : t -> initiator:int -> float
(** Cost of one IPI shootdown across all other cores, as used by
    mprotect/munmap: serial IPI programming plus the farthest handler's
    round trip. *)

val tlb : t -> core:int -> Jord_vm.Tlb.t
