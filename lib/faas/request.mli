(** Function-invocation requests and their accounting.

    Every invocation — external (from the load generator) or internal
    (nested) — is a request. External requests carry a [root] record that
    accumulates the whole invocation tree's execution time and overheads;
    nested requests share their parent's root, which is how the paper's
    breakdowns (Fig. 11) and per-request overhead numbers aggregate. *)

type root = {
  root_id : int;
  entry : string;  (** Entry function name. *)
  arrival : Jord_sim.Time.t;
  mutable completed_at : Jord_sim.Time.t;
  mutable finished : bool;
  mutable exec_ns : float;  (** Pure compute across the tree. *)
  mutable isolation_ns : float;  (** PrivLib + VLB-walk time across the tree. *)
  mutable dispatch_ns : float;  (** Orchestrator dispatch time across the tree. *)
  mutable comm_ns : float;  (** Data movement: ArgBuf accesses / pipe + shm. *)
  mutable queue_ns : float;
      (** Time spent waiting in orchestrator and executor queues across the
          tree, measured between [enqueued_at] stamps — each dispatch and
          forward hop re-stamps, so held or re-hopped requests never double
          count a wait. *)
  mutable invocations : int;  (** Requests in the tree (root included). *)
}

type t = {
  id : int;
  fn_name : string;
  arg_bytes : int;
  root : root;
  parent_id : int;  (** Spawning invocation's [id], -1 for external requests. *)
  depth : int;  (** 0 for external requests. *)
  mutable argbuf : int;  (** ArgBuf base VA (0 until allocated). *)
  mutable enqueued_at : Jord_sim.Time.t;
  mutable on_complete : (Jord_sim.Engine.t -> float -> unit) option;
      (** Fired by the executor when the request's subtree completes; the
          float is the notification-write latency already charged. Internal
          requests use it to resume their parent continuation. *)
  mutable forwarded : bool;
      (** Shipped to another worker server over the network (§3.3). *)
  mutable home_argbuf : int;
      (** The origin server's ArgBuf VA, restored before the parent reaps a
          forwarded request's response. *)
  mutable home_sid : int;
      (** Server the request was first forwarded from (-1 until then); the
          response event is routed back to it, across shards if needed. *)
  mutable acct : root;
      (** Where cost accumulators land: the real {!root} for local
          requests, a private detached ledger once forwarded (see
          {!detach_acct}) so remote servers never write the shared root —
          which would race under the sharded engine and make float
          summation order depend on interleaving. *)
  mutable home_acct : root;
      (** The ledger [acct] pointed at before {!detach_acct}; the fold
          target for {!settle_acct}. *)
}

val make_root :
  id:int -> entry:string -> arrival:Jord_sim.Time.t -> arg_bytes:int -> root * t

val make_child : id:int -> parent:t -> fn_name:string -> arg_bytes:int -> t
(** The child accumulates into [parent.acct] — the real root locally, the
    parent's detached ledger on a remote server. *)

val detach_acct : t -> unit
(** Called at the first forward hop: swap in a zeroed private ledger so all
    accounting while the request is away from home — including nested
    children spawned remotely — accumulates off to the side. *)

val settle_acct : t -> unit
(** Fold the detached ledger back into the enclosing one and re-attach.
    Runs inside the response event on the home server, so the float
    addition order is fixed by the response schedule — identical in
    sequential and sharded runs. No-op if never detached. *)

val latency_ns : root -> float
(** Arrival-to-completion latency (valid once [finished]). *)
