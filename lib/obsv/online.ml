module Trace = Jord_faas.Trace
module Sketch = Jord_telemetry.Sketch
module Json = Jord_util.Json

(* One evaluator per objective plus the span-side aggregates of the JSON
   report and the merge property. *)
type ostate = {
  ev : Slo.evaluator;
  mutable e2e_sum_ps : int;
  phase_sum_ps : int array;
  per_sid : (int, Sketch.t) Hashtbl.t;
}

type tracked = { sp : Span.t; mutable decided : bool }

type t = {
  objs : ostate list;
  spans : (int, tracked) Hashtbl.t;
  kids : (int, int list) Hashtbl.t;
  mutable last_decided_ps : int;  (* latest decision instant *)
  mutable finished : bool;
}

let create objectives =
  {
    objs =
      List.map
        (fun o ->
          {
            ev = Slo.evaluator o;
            e2e_sum_ps = 0;
            phase_sum_ps = Array.make Span.phase_count 0;
            per_sid = Hashtbl.create 4;
          })
        objectives;
    spans = Hashtbl.create 1024;
    kids = Hashtbl.create 256;
    last_decided_ps = 0;
    finished = false;
  }

let objectives t = List.map (fun os -> Slo.objective os.ev) t.objs

(* --- recording decided roots --- *)

(* A root is decided when it completes (at its end, with its end-to-end
   latency) or is shed (queue-full drop, deadline timeout: bad with no
   latency observation, at the shedding instant). *)
let decide t (sp : Span.t) ~at_ps ~shed =
  if at_ps > t.last_decided_ps then t.last_decided_ps <- at_ps;
  let e2e = if shed then 0 else Span.e2e_ps sp in
  List.iter
    (fun os ->
      if Slo.applies (Slo.objective os.ev) ~fn:sp.Span.fn then begin
        ignore (Slo.record os.ev ~at_ps ~latency_ps:e2e ~shed ~trace_id:(-1) : bool);
        if not shed then begin
          os.e2e_sum_ps <- os.e2e_sum_ps + e2e;
          Array.iteri
            (fun i v -> os.phase_sum_ps.(i) <- os.phase_sum_ps.(i) + v)
            sp.Span.phases;
          let per =
            match Hashtbl.find_opt os.per_sid sp.Span.sid with
            | Some s -> s
            | None ->
                let s = Sketch.create () in
                Hashtbl.add os.per_sid sp.Span.sid s;
                s
          in
          Sketch.add per e2e
        end
      end)
    t.objs

let rec forget t req_id =
  Hashtbl.remove t.spans req_id;
  match Hashtbl.find_opt t.kids req_id with
  | None -> ()
  | Some kids ->
      Hashtbl.remove t.kids req_id;
      List.iter (forget t) kids

let is_root (sp : Span.t) = sp.Span.parent_id < 0 && sp.Span.req_id = sp.Span.root_id

let observe t (e : Trace.event) =
  if e.Trace.req_id >= 0 then begin
    List.iter (fun os -> Slo.advance os.ev ~at_ps:e.Trace.at_ps) t.objs;
    let tracked =
      match Hashtbl.find_opt t.spans e.Trace.req_id with
      | Some tr -> tr
      | None ->
          let tr = { sp = Span.fresh e; decided = false } in
          Hashtbl.add t.spans e.Trace.req_id tr;
          if e.Trace.parent_id >= 0 then
            Hashtbl.replace t.kids e.Trace.parent_id
              (e.Trace.req_id
              :: Option.value ~default:[] (Hashtbl.find_opt t.kids e.Trace.parent_id));
          tr
    in
    Span.feed tracked.sp e;
    if (not tracked.decided) && is_root tracked.sp then
      if tracked.sp.Span.state = Span.Done && Span.complete tracked.sp then begin
        tracked.decided <- true;
        decide t tracked.sp ~at_ps:tracked.sp.Span.end_ps ~shed:false;
        forget t e.Trace.req_id
      end
      else if tracked.sp.Span.dead then begin
        tracked.decided <- true;
        decide t tracked.sp ~at_ps:e.Trace.at_ps ~shed:true;
        forget t e.Trace.req_id
      end
  end

(* Transitions become [Alert] trace events (req_id -1), so Perfetto
   timelines show SLO breaches against the spans that caused them. *)
let attach t tracer =
  List.iter
    (fun os ->
      Slo.on_close os.ev (fun _ -> function
        | None -> ()
        | Some tr ->
            Trace.emit tracer ~at_ps:tr.Slo.tr_at_ps ~kind:Trace.Alert ~req_id:(-1)
              ~root_id:(-1) ~fn:tr.Slo.tr_objective ~core:(-1)
              ~detail:(if tr.Slo.tr_firing then "fire" else "resolve")
              ()))
    t.objs;
  Trace.set_sink tracer (Some (observe t))

let finish t ~now_ps =
  if not t.finished then begin
    t.finished <- true;
    (* Close the final partial window too, so end-of-run reports include it. *)
    List.iter
      (fun os ->
        Slo.advance os.ev ~at_ps:now_ps;
        Slo.close_open os.ev)
      t.objs
  end

(* Without an explicit end, finish at the latest decision: a completion
   can end after the last event's timestamp, and its window must close. *)
let replay ~objectives ?finish_ps events =
  let t = create objectives in
  List.iter (observe t) events;
  finish t ~now_ps:(Option.value finish_ps ~default:t.last_decided_ps);
  t

(* --- snapshots --- *)

type objective_snapshot = {
  s_objective : Slo.objective;
  s_completed : int;
  s_shed : int;
  s_bad : int;
  s_e2e_sum_ps : int;
  s_phase_sum_ps : int array;
  s_sketch : Sketch.t;
  s_quantile_ps : int;
  s_windows_closed : int;
  s_fired : int;
  s_resolved : int;
  s_firing : bool;
  s_transitions : Slo.transition list;
  s_windows : Slo.window list;
  s_per_sid : (int * Sketch.t) list;
}

let snapshot t =
  List.map
    (fun os ->
      let ev = os.ev in
      {
        s_objective = Slo.objective ev;
        s_completed = Slo.requests ev - Slo.shed ev;
        s_shed = Slo.shed ev;
        s_bad = Slo.bad ev;
        s_e2e_sum_ps = os.e2e_sum_ps;
        s_phase_sum_ps = Array.copy os.phase_sum_ps;
        s_sketch = Sketch.copy (Slo.sketch ev);
        s_quantile_ps = Slo.quantile ev;
        s_windows_closed = Slo.windows_closed ev;
        s_fired = Slo.fired ev;
        s_resolved = Slo.resolved ev;
        s_firing = Slo.firing ev;
        s_transitions = Slo.transitions ev;
        s_windows = Slo.windows ev;
        s_per_sid =
          Hashtbl.fold (fun sid s acc -> (sid, Sketch.copy s) :: acc) os.per_sid []
          |> List.sort (fun (a, _) (b, _) -> compare a b);
      })
    t.objs

let transitions t = Slo.merge_transitions (List.map (fun os -> os.ev) t.objs)

(* --- telemetry --- *)

let register_metrics t ?(labels = []) registry =
  let module R = Jord_telemetry.Registry in
  List.iter
    (fun os ->
      let ev = os.ev in
      let l = labels @ [ ("slo", (Slo.objective ev).Slo.name) ] in
      let c name help f = R.counter_fn registry ~help ~labels:l name f in
      let g name help f = R.gauge_fn registry ~help ~labels:l name f in
      c "jord_slo_requests_total" "Roots decided against this objective"
        (fun () -> float_of_int (Slo.requests ev));
      c "jord_slo_bad_total" "Budget-consuming requests (over threshold or shed)"
        (fun () -> float_of_int (Slo.bad ev));
      c "jord_slo_shed_total" "Shed roots charged to the objective" (fun () ->
          float_of_int (Slo.shed ev));
      c "jord_slo_windows_closed_total" "Tumbling windows evaluated" (fun () ->
          float_of_int (Slo.windows_closed ev));
      c "jord_slo_alerts_fired_total" "Burn-rate alert firings" (fun () ->
          float_of_int (Slo.fired ev));
      c "jord_slo_alerts_resolved_total" "Burn-rate alert resolutions" (fun () ->
          float_of_int (Slo.resolved ev));
      g "jord_slo_firing" "1 while the alert is firing" (fun () ->
          if Slo.firing ev then 1.0 else 0.0);
      g "jord_slo_budget_remaining_ratio"
        "Share of the error budget not yet consumed" (fun () ->
          let total = Slo.requests ev in
          if total = 0 then 1.0
          else
            Float.max 0.0
              (1.0
              -. float_of_int (Slo.bad ev)
                 /. ((Slo.objective ev).Slo.budget *. float_of_int total))))
    t.objs

(* --- rendering --- *)

let alerts_text t =
  match transitions t with
  | [] -> "no alert transitions\n"
  | trs -> String.concat "\n" (List.map Slo.transition_line trs) ^ "\n"

let report_text t =
  Slo.verdict_table
    ~title:(Printf.sprintf "SLO report (%d objectives)" (List.length t.objs))
    (List.map (fun os -> Slo.verdict_cells os.ev) t.objs)
  ^ String.concat ""
      (List.map
         (fun o -> Printf.sprintf "%s: %s\n" o.Slo.name (Slo.describe o))
         (objectives t))
  ^ Slo.alert_log (transitions t)

let burn_text t =
  let buf = Buffer.create 2048 in
  List.iter
    (fun s ->
      let o = s.s_objective in
      Buffer.add_string buf
        (Jord_util.Render.table
           ~title:
             (Printf.sprintf "burn rate: %s (%s)" o.Slo.name (Slo.describe o))
           ~header:
             [ "window"; "start_us"; "end_us"; "total"; "bad"; "burn_fast";
               "burn_slow"; "state" ]
           ~rows:
             (List.map
                (fun (w : Slo.window) ->
                  [
                    string_of_int w.w_index;
                    Printf.sprintf "%.1f" (Slo.us (w.w_index * o.Slo.window_ps));
                    Printf.sprintf "%.1f" (Slo.us ((w.w_index + 1) * o.Slo.window_ps));
                    string_of_int w.w_total;
                    string_of_int w.w_bad;
                    Printf.sprintf "%.2f" w.w_burn_fast;
                    Printf.sprintf "%.2f" w.w_burn_slow;
                    (if w.w_firing then "FIRING" else "ok");
                  ])
                s.s_windows) ());
      Buffer.add_string buf
        (Printf.sprintf "burn_fast: %s\n\n"
           (Jord_util.Render.sparkline
              (List.map (fun (w : Slo.window) -> w.w_burn_fast) s.s_windows))))
    (snapshot t);
  Buffer.contents buf

let transition_json (tr : Slo.transition) =
  Json.Obj
    [
      ("at_us", Json.Float (Slo.us tr.Slo.tr_at_ps));
      ("objective", Json.String tr.Slo.tr_objective);
      ("transition", Json.String (if tr.Slo.tr_firing then "fire" else "resolve"));
      ("window", Json.Int tr.Slo.tr_window);
      ("burn_fast", Json.Float tr.Slo.tr_burn_fast);
      ("burn_slow", Json.Float tr.Slo.tr_burn_slow);
    ]

let alerts_json t =
  Json.to_string
    (Json.Obj
       [
         ("jord_slo_alerts", Json.Int 1);
         ("alerts", Json.List (List.map transition_json (transitions t)));
       ])

let report_json t =
  let snaps = snapshot t in
  let obj_json s =
    let o = s.s_objective in
    Json.Obj
      [
        ("name", Json.String o.Slo.name);
        ("spec", Json.String (Slo.to_string o));
        ("completed", Json.Int s.s_completed);
        ("shed", Json.Int s.s_shed);
        ("bad", Json.Int s.s_bad);
        ("e2e_sum_ps", Json.Int s.s_e2e_sum_ps);
        ( "phase_sum_ps",
          Json.Obj
            (Array.to_list
               (Array.map
                  (fun ph ->
                    ( Span.phase_name ph,
                      Json.Int s.s_phase_sum_ps.(Span.phase_index ph) ))
                  Span.all_phases)) );
        ("measured_quantile_us", Json.Float (Slo.us s.s_quantile_ps));
        ("threshold_us", Json.Float (Slo.us o.Slo.threshold_ps));
        ("windows_closed", Json.Int s.s_windows_closed);
        ("alerts_fired", Json.Int s.s_fired);
        ("alerts_resolved", Json.Int s.s_resolved);
        ("firing", Json.Bool s.s_firing);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("jord_slo_report", Json.Int 1);
         ("objectives", Json.List (List.map obj_json snaps));
         ("alerts", Json.List (List.map transition_json (transitions t)));
       ])

let burn_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "objective,window,start_us,end_us,total,bad,burn_fast,burn_slow,firing\n";
  List.iter
    (fun s ->
      let o = s.s_objective in
      List.iter
        (fun (w : Slo.window) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%.3f,%.3f,%d,%d,%.4f,%.4f,%d\n" o.Slo.name
               w.w_index
               (Slo.us (w.w_index * o.Slo.window_ps))
               (Slo.us ((w.w_index + 1) * o.Slo.window_ps))
               w.w_total w.w_bad w.w_burn_fast w.w_burn_slow
               (if w.w_firing then 1 else 0)))
        s.s_windows)
    (snapshot t);
  Buffer.contents buf
