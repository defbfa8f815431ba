(* Fleet-level SLO rollup: one Slo evaluator per objective, fed from the
   fleet load balancer's request completions (the fleet models servers at
   request granularity, so there are no spans to fold). Observations
   arrive in nondecreasing event time; an objective's windows advance only
   on observations it matches. *)

(* Exemplar plumbing toward the fleet tracer: [Candidate] fires when an
   observation becomes the open window's max-latency trace (the tracer
   parks its span), [Promoted] when the window closes on it (the tracer
   pins the parked span into the retained set). *)
type exemplar_event =
  | Candidate of { objective : string; id : int }
  | Promoted of { objective : string; id : int; window : int }

type t = {
  objs : Slo.evaluator array;
  mutable on_exemplar : exemplar_event -> unit;
  mutable finished : bool;
}

let create objectives =
  {
    objs = Array.of_list (List.map Slo.evaluator objectives);
    on_exemplar = ignore;
    finished = false;
  }

let objectives t = List.map Slo.objective (Array.to_list t.objs)

let set_exemplar_hook t f =
  t.on_exemplar <- f;
  Array.iter
    (fun ev ->
      let objective = (Slo.objective ev).Slo.name in
      Slo.on_close ev (fun w _ ->
          if w.Slo.w_exemplar >= 0 then
            f (Promoted { objective; id = w.Slo.w_exemplar; window = w.Slo.w_index })))
    t.objs

(* A loop over the array rather than an iterator closure: this runs once
   per fleet request and allocates nothing untraced. *)
let observe t ~trace_id ~at_ps ~fn ~latency_ps ~shed =
  if t.finished then invalid_arg "Rollup.observe: already finished";
  for i = 0 to Array.length t.objs - 1 do
    let ev = t.objs.(i) in
    if Slo.applies (Slo.objective ev) ~fn then begin
      Slo.advance ev ~at_ps;
      if Slo.record ev ~at_ps ~latency_ps ~shed ~trace_id then
        t.on_exemplar
          (Candidate { objective = (Slo.objective ev).Slo.name; id = trace_id })
    end
  done

let finish t ~now_ps =
  if not t.finished then begin
    t.finished <- true;
    Array.iter
      (fun ev ->
        Slo.advance ev ~at_ps:now_ps;
        (* Close the final partial window when it saw traffic. *)
        if Slo.open_requests ev > 0 then Slo.close_open ev)
      t.objs
  end

type row = {
  r_objective : Slo.objective;
  r_requests : int;
  r_bad : int;
  r_shed : int;
  r_quantile_ps : int;
  r_budget_used : float;  (* percent of the error budget consumed *)
  r_windows_closed : int;
  r_fired : int;
  r_resolved : int;
  r_firing : bool;
  r_verdict : string;
  r_exemplar_ps : int;  (* -1 when the run carried no trace ids *)
  r_exemplar : int;  (* max-latency retained trace id, or -1 *)
}

let rows t =
  List.map
    (fun ev ->
      let ex_ps, ex_id =
        Option.value (Jord_telemetry.Sketch.exemplar (Slo.sketch ev)) ~default:(-1, -1)
      in
      {
        r_objective = Slo.objective ev;
        r_requests = Slo.requests ev;
        r_bad = Slo.bad ev;
        r_shed = Slo.shed ev;
        r_quantile_ps = Slo.quantile ev;
        r_budget_used = Slo.budget_used ev;
        r_windows_closed = Slo.windows_closed ev;
        r_fired = Slo.fired ev;
        r_resolved = Slo.resolved ev;
        r_firing = Slo.firing ev;
        r_verdict = Slo.verdict ev;
        r_exemplar_ps = ex_ps;
        r_exemplar = ex_id;
      })
    (Array.to_list t.objs)

let windows t =
  List.map
    (fun ev -> ((Slo.objective ev).Slo.name, Slo.windows ev))
    (Array.to_list t.objs)

let transitions t = Slo.merge_transitions (Array.to_list t.objs)

let report_text t =
  Slo.verdict_table
    ~title:(Printf.sprintf "fleet SLO rollup (%d objectives)" (Array.length t.objs))
    ~extra:[ "exemplar" ]
    (List.map
       (fun ev ->
         Slo.verdict_cells ev
         @ [
             (match Jord_telemetry.Sketch.exemplar (Slo.sketch ev) with
             | None -> "-"
             | Some (_, id) -> Printf.sprintf "trace=%d" id);
           ])
       (Array.to_list t.objs))
  ^ Slo.alert_log (transitions t)

let report_json t =
  let open Jord_util.Json in
  let rs = rows t in
  to_string
    (Obj
       [
         ("jord_fleet_slo_rollup", Int 1);
         ( "objectives",
           List
             (List.map
                (fun r ->
                  Obj
                    [
                      ("name", String r.r_objective.Slo.name);
                      ("requests", Int r.r_requests);
                      ("bad", Int r.r_bad);
                      ("shed", Int r.r_shed);
                      ("quantile_ps", Int r.r_quantile_ps);
                      ("budget_used_pct", Float r.r_budget_used);
                      ("windows_closed", Int r.r_windows_closed);
                      ("fired", Int r.r_fired);
                      ("resolved", Int r.r_resolved);
                      ("firing", Bool r.r_firing);
                      ("verdict", String r.r_verdict);
                      ("exemplar_trace_id", Int r.r_exemplar);
                      ("exemplar_ps", Int r.r_exemplar_ps);
                    ])
                rs) );
       ])

(* --- CSV export (the Export.blame_csv conventions: one flat unquoted table,
   objective-level columns repeated on every per-window row) --- *)

let csv_header =
  "objective,fn,kind,requests,bad,shed,measured_us,budget_used_pct,windows,\
   fired,resolved,verdict,exemplar,window,w_total,w_bad,w_exemplar"

let report_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter2
    (fun r (_, wins) ->
      let o = r.r_objective in
      let prefix =
        Printf.sprintf "%s,%s,%s,%d,%d,%d,%.4f,%.4f,%d,%d,%d,%s,%d" o.Slo.name
          (match o.Slo.fn with None -> "*" | Some fn -> fn)
          (match o.Slo.kind with Slo.Latency -> "latency" | Slo.Availability -> "availability")
          r.r_requests r.r_bad r.r_shed
          (float_of_int r.r_quantile_ps /. 1e6)
          r.r_budget_used
          r.r_windows_closed r.r_fired r.r_resolved r.r_verdict r.r_exemplar
      in
      match wins with
      | [] -> Buffer.add_string buf (prefix ^ ",-1,0,0,-1\n")
      | wins ->
          List.iter
            (fun (w : Slo.window) ->
              Buffer.add_string buf
                (Printf.sprintf "%s,%d,%d,%d,%d\n" prefix w.Slo.w_index w.Slo.w_total
                   w.Slo.w_bad w.Slo.w_exemplar))
            wins)
    (rows t) (windows t);
  Buffer.contents buf

(* Parse a [report_csv] document back into header-keyed rows — the
   round-trip check and any downstream tooling share this. No quoting: the
   writer never emits fields containing commas. *)
let parse_csv body =
  match String.split_on_char '\n' (String.trim body) with
  | [] | [ "" ] -> Error "empty CSV"
  | header :: lines ->
      let cols = String.split_on_char ',' header in
      let ncols = List.length cols in
      let rec go n acc = function
        | [] -> Ok (List.rev acc)
        | "" :: rest -> go (n + 1) acc rest
        | line :: rest ->
            let fields = String.split_on_char ',' line in
            if List.length fields <> ncols then
              Error
                (Printf.sprintf "line %d: expected %d fields, got %d" n ncols
                   (List.length fields))
            else go (n + 1) (List.combine cols fields :: acc) rest
      in
      go 2 [] lines
