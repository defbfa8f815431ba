module Time = Jord_sim.Time
module Engine = Jord_sim.Engine

(* Orchestrator control lines live in their own address-space region. *)
let orch_region = 1 lsl 45

(* Dispatch-loop instruction budgets. *)
let dispatch_instrs = 36
let per_scan_instrs = 4

type t = {
  oid : int;
  core : int;
  execs : Executor.t array;
  external_q : Request.t Queue.t;
  internal_q : Request.t Queue.t;
  mutable pending : Request.t option; (* retry slot when all queues are full *)
  mutable pending_retries : int;
  mutable busy : bool;
  rr_cursor : int ref;
  ext_line : int;
  int_line : int;
  notify_line : int;
  mutable reclaim : (int * int) list; (* finished root argbufs: (va, bytes) *)
  (* Dispatch-loop scratch and pre-built closures: the hot loop reuses
     these instead of allocating fresh ones on every dispatch. *)
  mutable scan_hit_ns : float;
  mutable scan_misses : float list;
  scan_count : int ref;
  mutable scan_lengths : int -> int;
  mutable scan_full : int -> bool;
  mutable dispatch_fn : Engine.t -> unit;
  mutable wake_fn : Engine.t -> unit;
  mutable idle_fn : Engine.t -> unit;
}

(* Deadline policy: shed external roots that can no longer meet their
   deadline before spending dispatch work on them. Internal (depth > 0)
   requests are never shed — a waiting parent must always be unblocked. *)
let shed_expired (ctx : Executor.ctx) t =
  match ctx.Executor.recovery.Recovery.deadline with
  | None -> ()
  | Some d ->
      let now = Engine.now ctx.Executor.engine in
      let rec go () =
        match Queue.peek_opt t.external_q with
        | Some req when Time.(now - req.Request.root.Request.arrival) > d ->
            ignore (Queue.pop t.external_q);
            ctx.Executor.timed_out <- ctx.Executor.timed_out + 1;
            ctx.Executor.in_flight <- ctx.Executor.in_flight - 1;
            Executor.trace ctx ~kind:Trace.Timeout ~req ~core:t.core
              ~detail:"deadline" ();
            go ()
        | Some _ | None -> ()
      in
      go ()

let pick_request (ctx : Executor.ctx) t =
  shed_expired ctx t;
  match t.pending with
  | Some req ->
      t.pending <- None;
      Some (req, 0.0)
  | None ->
      (* Deadlock freedom (paper §3.3): internal requests go first, so
         executors waiting on children always make progress. The ablation
         flag reverses the order to demonstrate why it matters. *)
      let internal_first =
        if ctx.Executor.internal_priority then not (Queue.is_empty t.internal_q)
        else Queue.is_empty t.external_q && not (Queue.is_empty t.internal_q)
      in
      if internal_first then begin
        let req = Queue.pop t.internal_q in
        let deq = Jord_arch.Memsys.read ctx.memsys ~core:t.core ~addr:t.int_line in
        if req.Request.forwarded && req.Request.argbuf = 0 then begin
          (* Arrived from another server: land the payload in a local
             ArgBuf (network copy, no zero-copy across machines). *)
          let c = ctx.Executor.cost in
          let va = Runtime.external_input ctx.rt ~core:t.core ~bytes:req.Request.arg_bytes c in
          req.Request.argbuf <- va;
          Executor.add_cost req.Request.acct c;
          let copy = Netmodel.copy_ns ctx.net ~bytes:req.Request.arg_bytes in
          req.Request.acct.Request.comm_ns <-
            req.Request.acct.Request.comm_ns +. copy;
          Some (req, deq +. Runtime.total c +. copy)
        end
        else Some (req, deq)
      end
      else if not (Queue.is_empty t.external_q) then begin
        let req = Queue.pop t.external_q in
        let deq = Jord_arch.Memsys.read ctx.memsys ~core:t.core ~addr:t.ext_line in
        (* Materialize the external payload into an ArgBuf. *)
        let c = ctx.Executor.cost in
        let va = Runtime.external_input ctx.rt ~core:t.core ~bytes:req.Request.arg_bytes c in
        req.Request.argbuf <- va;
        Executor.add_cost req.Request.acct c;
        Some (req, deq +. Runtime.total c)
      end
      else None

(* JBSQ scan: read every managed executor's queue-length line. Misses
   overlap (memory-level parallelism): the worst one at full latency, the
   rest at a quarter; hits are pipelined loads. *)
let jbsq_scan (ctx : Executor.ctx) t =
  t.scan_hit_ns <- 0.0;
  t.scan_misses <- [];
  t.scan_count := 0;
  let choice =
    Policy.pick ctx.Executor.policy ~prng:ctx.prng ~cursor:t.rr_cursor
      ~lengths:t.scan_lengths ~full:t.scan_full ~n:(Array.length t.execs)
      ~scanned:t.scan_count
  in
  let scan_ns =
    t.scan_hit_ns
    +.
    (* Independent loads overlap: the worst miss is fully exposed, the rest
       partially. Cross-socket transfers (long wire latency over deeply
       pipelined links) overlap more than intra-socket ones. *)
    match List.sort (fun a b -> compare b a) t.scan_misses with
    | [] -> 0.0
    | worst :: rest ->
        worst
        +. List.fold_left
             (fun acc lat -> acc +. (lat *. if lat > 400.0 then 0.1 else 0.25))
             0.0 rest
  in
  let instr_ns =
    Jord_vm.Hw.instr_ns ctx.hw (dispatch_instrs + (per_scan_instrs * !(t.scan_count)))
  in
  (choice, scan_ns, instr_ns)

let reclaim_argbufs (ctx : Executor.ctx) t n =
  let ns = ref 0.0 in
  let rec go n =
    if n > 0 then
      match t.reclaim with
      | [] -> ()
      | (va, bytes) :: rest ->
          t.reclaim <- rest;
          if va <> 0 then begin
            let c = ctx.Executor.cost in
            Runtime.release_argbuf ctx.Executor.rt ~core:t.core ~va ~bytes c;
            ns := !ns +. Runtime.total c
          end;
          go (n - 1)
  in
  go n;
  !ns

let dispatch_one (ctx : Executor.ctx) t engine =
  let now = Engine.now engine in
  if now < ctx.Executor.srv_down_until then
    (* Whole-server downtime: hold the loop — [busy] stays set so arrivals
       landing meanwhile only enqueue — and resume at the boot horizon. *)
    Engine.schedule_at ctx.Executor.engine ~time:ctx.Executor.srv_down_until
      t.dispatch_fn
  else
  match pick_request ctx t with
  | None ->
      (* Going idle: release any finished root ArgBufs first. *)
      let reclaim_ns = reclaim_argbufs ctx t max_int in
      if reclaim_ns > 0.0 then
        Engine.schedule ctx.engine ~after:(Time.of_ns reclaim_ns) t.idle_fn
      else t.busy <- false
  | Some (req, intake_ns) ->
      let acct = req.Request.acct in
      (* Queueing-time accounting: credit the wait since the last stamp and
         re-stamp now, so a held or re-hopped request leaves every hop with
         a fresh [enqueued_at] and never double counts a wait (bugfix: the
         forward path used to ship requests with a stale stamp). *)
      let wait_ns = Float.max 0.0 (Time.to_ns Time.(now - req.Request.enqueued_at)) in
      acct.Request.queue_ns <- acct.Request.queue_ns +. wait_ns;
      ctx.queue_wait_ns <- ctx.queue_wait_ns +. wait_ns;
      req.Request.enqueued_at <- now;
      let choice, scan_ns, instr_ns = jbsq_scan ctx t in
      (match choice with
      | None -> (
          acct.Request.dispatch_ns <- acct.Request.dispatch_ns +. scan_ns +. instr_ns;
          ctx.dispatch_ns <- ctx.dispatch_ns +. scan_ns +. instr_ns;
          t.pending_retries <- t.pending_retries + 1;
          ctx.queue_full_retries <- ctx.queue_full_retries + 1;
          match ctx.forward_cb with
          | Some forward
            when t.pending_retries > ctx.forward_after
                 && req.Request.depth > 0
                 && not (Variant.uses_pipes ctx.variant) ->
              (* This server cannot serve the internal request: ship it to
                 another worker server over the network (paper 3.3). *)
              t.pending_retries <- 0;
              ctx.forwarded_out <- ctx.forwarded_out + 1;
              Executor.trace ctx ~kind:Trace.Forward ~req ~core:t.core ();
              (* Only the first hop records the origin ArgBuf; on a re-hop
                 the intermediate copy is reclaimed locally. *)
              if not req.Request.forwarded then begin
                req.Request.forwarded <- true;
                req.Request.home_argbuf <- req.Request.argbuf;
                (* First hop off the home server: remember where the
                   response must land and detach the cost ledger so remote
                   accumulation never touches the shared root (folded back
                   at the response event — [Request.settle_acct]). *)
                req.Request.home_sid <- ctx.Executor.sid;
                Request.detach_acct req
              end
              else if req.Request.argbuf <> 0 then
                t.reclaim <- (req.Request.argbuf, req.Request.arg_bytes) :: t.reclaim;
              req.Request.argbuf <- 0;
              let send = Netmodel.send_ns ctx.net ~bytes:req.Request.arg_bytes in
              (* The send is paid by the forwarding server into the ledger
                 it owns: the enclosing one on the first hop (bound above,
                 pre-detach), the travelling one on a re-hop. *)
              acct.Request.dispatch_ns <- acct.Request.dispatch_ns +. send;
              forward req;
              Engine.schedule ctx.engine ~after:(Time.of_ns send) t.dispatch_fn
          | Some _ | None ->
              (* Hold the request and retry after a backoff beat: capped
                 exponential in the consecutive full scans; the default
                 cap of 0 keeps the historical fixed 200 ns beat. *)
              let back =
                Recovery.backoff_ns ctx.Executor.recovery (t.pending_retries - 1)
              in
              ctx.on_retry_backoff back;
              (* dur = the backoff beat: the span builder attributes the
                 interval up to the next dispatch attempt to backoff. *)
              Executor.trace ctx ~kind:Trace.Retry ~req ~core:t.core ~dur_ns:back ();
              t.pending <- Some req;
              Engine.schedule ctx.engine ~after:(Time.of_ns back) t.dispatch_fn)
      | Some i ->
          t.pending_retries <- 0;
          Executor.trace ctx ~kind:Trace.Dispatch ~req ~core:t.core ();
          let e = t.execs.(i) in
          let enq_ns =
            Bounded_queue.enqueue e.Executor.queue ~memsys:ctx.memsys ~core:t.core req
          in
          (* NightCore ships the request over a pipe: the dispatcher only
             pays the write syscall; the receiver-side copy-out and futex
             wakeup delay the worker instead. *)
          let pipe_send, pipe_wake =
            if Variant.uses_pipes ctx.variant then
              let pipe = (Runtime.nc ctx.rt).Jord_baseline.Nightcore.pipe in
              ( Jord_baseline.Pipe.sender_ns pipe ~bytes:64,
                Jord_baseline.Pipe.message_ns pipe ~bytes:64 ~wake:true
                -. Jord_baseline.Pipe.sender_ns pipe ~bytes:64 )
            else (0.0, 0.0)
          in
          let disp = scan_ns +. instr_ns +. enq_ns +. pipe_send +. pipe_wake in
          acct.Request.dispatch_ns <- acct.Request.dispatch_ns +. disp;
          ctx.dispatch_count <- ctx.dispatch_count + 1;
          ctx.dispatch_ns <- ctx.dispatch_ns +. disp;
          (* Reclaim up to two finished root ArgBufs, amortized into the
             dispatch loop. *)
          let reclaim_ns = reclaim_argbufs ctx t 2 in
          let busy =
            intake_ns +. scan_ns +. instr_ns +. enq_ns +. pipe_send +. reclaim_ns
          in
          Executor.charge_core ctx t.core busy;
          let next = Time.(now + Time.of_ns busy) in
          let seen = Time.(now + Time.of_ns (busy +. pipe_wake)) in
          Engine.schedule_at ctx.engine ~time:seen (fun eng ->
              req.Request.enqueued_at <- seen;
              if not e.Executor.busy then Executor.poll ctx e eng);
          Engine.schedule_at ctx.engine ~time:next t.dispatch_fn)

(* Whole-server crash: classify the held retry slot and the internal queue
   (entry requests re-queue at [reboot], local children are discarded).
   The external queue survives untouched — those roots never started, own
   no ArgBuf yet, and dispatch normally once the boot horizon passes. The
   reclaim list also survives: it is bookkeeping of buffers that must
   still be released. *)
let purge_for_reboot (ctx : Executor.ctx) t ~reboot =
  let e = t.execs.(0) in
  (match t.pending with
  | Some req ->
      t.pending <- None;
      Executor.purge_request ctx e req ~reboot
  | None -> ());
  t.pending_retries <- 0;
  while not (Queue.is_empty t.internal_q) do
    Executor.purge_request ctx e (Queue.pop t.internal_q) ~reboot
  done

let internal_arrival ctx t req engine =
  req.Request.enqueued_at <- Engine.now engine;
  (* Arrival checkpoint for every internally-queued request: child births,
     crash re-queues, and forwarded requests landing from the wire — the
     span builder closes a wire hop (or a queue interval) here. *)
  Executor.trace ctx ~kind:Trace.Arrive ~req ~core:t.core ();
  Queue.push req t.internal_q;
  if not t.busy then begin
    t.busy <- true;
    dispatch_one ctx t engine
  end

let enqueue_external ctx t req engine =
  Queue.push req t.external_q;
  if not t.busy then begin
    t.busy <- true;
    dispatch_one ctx t engine
  end

let create (ctx : Executor.ctx) ~oid ~core ~execs =
  let noop (_ : Engine.t) = () in
  let t =
    {
      oid;
      core;
      execs;
      external_q = Queue.create ();
      internal_q = Queue.create ();
      pending = None;
      pending_retries = 0;
      busy = false;
      rr_cursor = ref 0;
      ext_line = orch_region + (oid * 4096);
      int_line = orch_region + (oid * 4096) + 64;
      notify_line = orch_region + (oid * 4096) + 128;
      reclaim = [];
      scan_hit_ns = 0.0;
      scan_misses = [];
      scan_count = ref 0;
      scan_lengths = (fun _ -> 0);
      scan_full = (fun _ -> false);
      dispatch_fn = noop;
      wake_fn = noop;
      idle_fn = noop;
    }
  in
  t.scan_lengths <-
    (fun i ->
      let e = t.execs.(i) in
      let lat =
        Jord_arch.Memsys.read ctx.memsys ~core:t.core
          ~addr:(Bounded_queue.len_addr e.Executor.queue)
      in
      if lat <= 0.6 then t.scan_hit_ns <- t.scan_hit_ns +. lat
      else t.scan_misses <- lat :: t.scan_misses;
      Bounded_queue.length e.Executor.queue);
  t.scan_full <-
    (fun i ->
      let e = t.execs.(i) in
      (* A crashed executor reads as full until its restart horizon. *)
      Bounded_queue.is_full e.Executor.queue
      || Engine.now ctx.engine < e.Executor.down_until);
  t.dispatch_fn <- (fun eng -> dispatch_one ctx t eng);
  t.wake_fn <-
    (fun eng ->
      if not t.busy then begin
        t.busy <- true;
        dispatch_one ctx t eng
      end);
  t.idle_fn <-
    (fun eng ->
      if not (Queue.is_empty t.internal_q) || not (Queue.is_empty t.external_q) then
        dispatch_one ctx t eng
      else t.busy <- false);
  (* Wire the executors back to this orchestrator through the uplink —
     the only channel the executor layer has to reach us. *)
  let up =
    {
      Executor.int_line = t.int_line;
      notify_line = t.notify_line;
      submit_internal =
        (fun ~at req ->
          Engine.schedule_at ctx.engine ~time:at (fun eng ->
              internal_arrival ctx t req eng));
      push_reclaim = (fun ~va ~bytes -> t.reclaim <- (va, bytes) :: t.reclaim);
      wake = t.wake_fn;
    }
  in
  Array.iter (fun e -> e.Executor.up <- Some up) execs;
  t
