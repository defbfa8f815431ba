module Json = Jord_util.Json

(* Reports over a loaded fleet trace — what [jordctl trace] prints when the
   file turns out to be a fleet one. Fleet spans are flat (one record per
   request, six exclusive phases), so "critical path" degenerates to the
   span itself and the interesting question becomes *blame*: which phase
   owns the tail, per entry function and per member, plus how evenly the
   balancer spread the load. All statistics are over the retained
   (tail-sampled) set; the headline line says so. The percentiles,
   per-function statistics and phase table are Report's. *)

let spans_of (l : Tracefile.fleet) = List.map snd l.Tracefile.spans

let completed l =
  List.filter (fun sp -> sp.Fspan.outcome = Fspan.Completed) (spans_of l)

let conservation_violations l =
  List.filter_map
    (fun sp ->
      if Fspan.conservation_ok sp then None
      else
        Some
          (Printf.sprintf "request %d: phases sum to %d ps, end-to-end is %d ps"
             sp.Fspan.req_id (Fspan.sum_phases sp) (Fspan.e2e_ps sp)))
    (spans_of l)

let conservation_ok l = conservation_violations l = []

let conservation_line l =
  match conservation_violations l with
  | [] ->
      Printf.sprintf
        "conservation: ok (%d retained spans; phases sum exactly to end-to-end)"
        (List.length l.Tracefile.spans)
  | errs ->
      Printf.sprintf "conservation: VIOLATED (%d spans)\n  %s" (List.length errs)
        (String.concat "\n  " errs)

let headline (l : Tracefile.fleet) =
  let parts =
    List.map
      (fun (k, v) -> Printf.sprintf "%s=%d" k v)
      (Ftrace.keep_counts l.Tracefile.spans)
  in
  Printf.sprintf "fleet trace: %d spans retained of %d requests (keep: %s)\n"
    (List.length l.Tracefile.spans)
    l.Tracefile.offered_total
    (if parts = [] then "-" else String.concat " " parts)

let phase_names = Array.map Fspan.phase_name Fspan.all_phases

let stats_by ~fn sps =
  Report.by_fn ~fn ~e2e:Fspan.e2e_ps ~phases:(fun sp -> sp.Fspan.phases) sps

let by_function l = stats_by ~fn:(fun sp -> sp.Fspan.fn) (completed l)

let attribution buf stats =
  Buffer.add_string buf
    "per-phase attribution, completed requests (mean us per request / share of \
     e2e):\n";
  Report.phase_table buf ~names:phase_names ~label:"fn" (Report.fn_rows stats)

(* "p99 is X% cold-start / Y% member queue / ..." over a tail slice's phase
   totals, heaviest phase first, zero phases omitted. *)
let tail_split tail_phase_ps =
  let total = Array.fold_left ( + ) 0 tail_phase_ps in
  if total = 0 then ("empty", [])
  else
    let parts =
      Array.to_list Fspan.all_phases
      |> List.map (fun ph ->
             (ph, tail_phase_ps.(Fspan.phase_index ph)))
      |> List.filter (fun (_, v) -> v > 0)
      |> List.sort (fun (pa, a) (pb, b) ->
             compare (-a, Fspan.phase_index pa) (-b, Fspan.phase_index pb))
      |> List.map (fun (ph, v) ->
             ( Fspan.phase_name ph,
               100.0 *. float_of_int v /. float_of_int total ))
    in
    (match parts with (name, _) :: _ -> name | [] -> "empty"), parts

let tail_split_string parts =
  String.concat " / "
    (List.map (fun (name, pct) -> Printf.sprintf "%.0f%% %s" pct name) parts)

let breakdown l =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (headline l);
  let stats = by_function l in
  if stats = [] then Buffer.add_string buf "no completed spans retained\n"
  else attribution buf stats;
  Buffer.add_string buf (conservation_line l);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let slowest ?(n = 10) l =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (headline l);
  let sps =
    List.sort
      (fun a b ->
        compare (Fspan.e2e_ps b, a.Fspan.req_id) (Fspan.e2e_ps a, b.Fspan.req_id))
      (completed l)
  in
  let picked = List.filteri (fun i _ -> i < n) sps in
  if picked = [] then Buffer.add_string buf "no completed spans retained\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "slowest %d retained requests:\n" (List.length picked));
    Report.phase_table buf ~names:phase_names ~label:"req"
      (List.map
         (fun sp ->
           ( Printf.sprintf "#%d %s@m%d%s" sp.Fspan.req_id sp.Fspan.fn
               sp.Fspan.member
               (if sp.Fspan.cold then "*" else ""),
             Array.map float_of_int sp.Fspan.phases ))
         picked)
  end;
  Buffer.contents buf

type member_stats = {
  member : int;
  routed : int;  (* spans routed to this member (incl. member sheds) *)
  m_completed : int;
  m_shed : int;
  hits : int;
  colds : int;
  m_mean_ps : float;
  m_p99_ps : int;
}

let by_member l =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      if sp.Fspan.member >= 0 then
        let l = Option.value ~default:[] (Hashtbl.find_opt tbl sp.Fspan.member) in
        Hashtbl.replace tbl sp.Fspan.member (sp :: l))
    (spans_of l);
  Hashtbl.fold
    (fun member sps acc ->
      let comp = List.filter (fun sp -> sp.Fspan.outcome = Fspan.Completed) sps in
      let lat = Array.of_list (List.map Fspan.e2e_ps comp) in
      Array.sort compare lat;
      let count f = List.length (List.filter f sps) in
      {
        member;
        routed = List.length sps;
        m_completed = List.length comp;
        m_shed = count (fun sp -> sp.Fspan.outcome = Fspan.Shed_member);
        hits = count (fun sp -> sp.Fspan.lb_hit);
        colds = count (fun sp -> sp.Fspan.cold);
        m_mean_ps =
          (if comp = [] then 0.0
           else
             Array.fold_left (fun s v -> s +. float_of_int v) 0.0 lat
             /. float_of_int (Array.length lat));
        m_p99_ps = Report.percentile 99.0 lat;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare (-a.routed, a.member) (-b.routed, b.member))

(* Balance of the retained routed load: max/mean requests-per-member, the
   warm-route hit rate and the cold-start rate. *)
let imbalance_line members =
  match members with
  | [] -> "lb-imbalance: no routed spans retained\n"
  | _ ->
      let n = List.length members in
      let total = List.fold_left (fun a m -> a + m.routed) 0 members in
      let mean = float_of_int total /. float_of_int n in
      let worst = List.hd members in
      let least =
        List.fold_left
          (fun best m ->
            if (m.routed, m.member) < (best.routed, best.member) then m else best)
          worst members
      in
      let hits = List.fold_left (fun a m -> a + m.hits) 0 members in
      let colds = List.fold_left (fun a m -> a + m.colds) 0 members in
      let pct a = 100.0 *. float_of_int a /. float_of_int (Int.max 1 total) in
      Printf.sprintf
        "lb-imbalance: %d members, %.1f requests/member mean, max=%d (member %d) \
         min=%d (member %d), max/mean=%.2f; warm-route hits=%.0f%% cold=%.0f%%\n"
        n mean worst.routed worst.member least.routed least.member
        (float_of_int worst.routed /. Float.max 1.0 mean)
        (pct hits) (pct colds)

let member_cap = 16

(* The fleet blame report: per-fn attribution with tail verdicts, the
   per-member view (top [member_cap] by routed load, deterministic order),
   the LB-imbalance summary, and the headline p99 verdict that names the
   guilty phase. *)
let blame l =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (headline l);
  let comp = completed l in
  if comp = [] then begin
    Buffer.add_string buf "no completed spans retained\n";
    Buffer.add_string buf (conservation_line l);
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end
  else begin
    let stats = by_function l in
    attribution buf stats;
    Buffer.add_string buf "per-fn tail (requests at or above the fn's p99):\n";
    List.iter
      (fun (s : Report.fn_stats) ->
        let _, parts = tail_split s.tail_phase_ps in
        Buffer.add_string buf
          (Printf.sprintf "  %-16s p99=%.3fus n=%d: p99 is %s\n" s.fn
             (Slo.us s.p99_ps) s.tail_n (tail_split_string parts)))
      stats;
    (* Fleet-wide tail verdict: every completed span as one group. *)
    let fleet = List.hd (stats_by ~fn:(fun _ -> "*") comp) in
    let worst, parts = tail_split fleet.Report.tail_phase_ps in
    Buffer.add_string buf
      (Printf.sprintf "tail: for p99 requests (>= %.3f us, n=%d), p99 is %s\n"
         (Slo.us fleet.Report.p99_ps) fleet.Report.tail_n (tail_split_string parts));
    Buffer.add_string buf
      (Printf.sprintf "verdict: %s dominates the fleet p99 tail\n" worst);
    (* Per-member view, capped deterministically. *)
    let members = by_member l in
    let shown = List.filteri (fun i _ -> i < member_cap) members in
    Buffer.add_string buf
      (Printf.sprintf "per-member (top %d of %d by retained requests):\n"
         (List.length shown) (List.length members));
    Buffer.add_string buf
      (Printf.sprintf "  %-8s %8s %8s %6s %6s %6s %10s %10s\n" "member" "routed"
         "done" "shed" "hit" "cold" "mean_us" "p99_us");
    List.iter
      (fun m ->
        Buffer.add_string buf
          (Printf.sprintf "  %-8d %8d %8d %6d %6d %6d %10.3f %10.3f\n" m.member
             m.routed m.m_completed m.m_shed m.hits m.colds (m.m_mean_ps /. 1e6)
             (Slo.us m.m_p99_ps)))
      shown;
    Buffer.add_string buf (imbalance_line members);
    Buffer.add_string buf (conservation_line l);
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end

(* --- Perfetto export: one process track for the balancer, one per member,
   with request/response flow arrows between them --- *)

let balancer_pid = 1
let member_pid m = m + 2
let resp_flow_base = 1 lsl 30

let span_args keep sp =
  ( "args",
    Json.Obj
      ([
         ("req", Json.Int sp.Fspan.req_id);
         ("user", Json.Int sp.Fspan.user);
         ("fn", Json.String sp.Fspan.fn);
         ("member", Json.Int sp.Fspan.member);
         ("outcome", Json.String (Fspan.outcome_name sp.Fspan.outcome));
         ("keep", Json.String keep);
       ]
      @ Array.to_list
          (Array.map
             (fun ph ->
               (Fspan.phase_name ph ^ "_us", Json.Float (Slo.us (Fspan.phase_ps sp ph))))
             Fspan.all_phases)) )

let chrome_json (l : Tracefile.fleet) =
  let members = Hashtbl.create 32 in
  List.iter
    (fun (_, sp) ->
      if sp.Fspan.member >= 0 then Hashtbl.replace members sp.Fspan.member ())
    l.Tracefile.spans;
  let procs =
    Export.meta ~pid:balancer_pid ~name:"fleet balancer" "process_name"
    :: (Hashtbl.fold
          (fun m () acc ->
            Export.meta ~pid:(member_pid m)
              ~name:(Printf.sprintf "fleet member %d" m)
              "process_name"
            :: acc)
          members []
       |> List.sort compare)
  in
  let out = ref [] in
  let push j = out := j :: !out in
  List.iter
    (fun (keep, sp) ->
      let args = span_args keep sp in
      (* The balancer-side slice covers the whole request. *)
      push
        (Json.Obj
           [
             ("ph", Json.String "X");
             ("name", Json.String sp.Fspan.fn);
             ("pid", Json.Int balancer_pid);
             ("tid", Json.Int 0);
             ("ts", Json.Float (Slo.us sp.Fspan.submit_ps));
             ("dur", Json.Float (Slo.us (Fspan.e2e_ps sp)));
             args;
           ]);
      if sp.Fspan.member >= 0 then begin
        let depart =
          sp.Fspan.submit_ps + Fspan.phase_ps sp Fspan.Balancer_queue
        in
        let arrive = depart + Fspan.phase_ps sp Fspan.Wire in
        let busy =
          Fspan.phase_ps sp Fspan.Member_queue
          + Fspan.phase_ps sp Fspan.Cold_start
          + Fspan.phase_ps sp Fspan.Service
        in
        push
          (Json.Obj
             [
               ("ph", Json.String "X");
               ( "name",
                 Json.String
                   (sp.Fspan.fn
                   ^ (if sp.Fspan.cold then " (cold)" else "")
                   ^
                   if sp.Fspan.outcome = Fspan.Shed_member then " (shed)" else "")
               );
               ("pid", Json.Int (member_pid sp.Fspan.member));
               ("tid", Json.Int 0);
               ("ts", Json.Float (Slo.us arrive));
               ("dur", Json.Float (Slo.us busy));
               args;
             ]);
        (* Request and response wire hops as flow arrows. *)
        push
          (Export.flow ~ph:"s" ~id:sp.Fspan.req_id ~pid:balancer_pid ~tid:0
             ~ts:depart ~name:"req");
        push
          (Export.flow ~ph:"f" ~id:sp.Fspan.req_id ~pid:(member_pid sp.Fspan.member)
             ~tid:0 ~ts:arrive ~name:"req");
        push
          (Export.flow ~ph:"s"
             ~id:(resp_flow_base + sp.Fspan.req_id)
             ~pid:(member_pid sp.Fspan.member)
             ~tid:0 ~ts:(arrive + busy) ~name:"resp");
        push
          (Export.flow ~ph:"f"
             ~id:(resp_flow_base + sp.Fspan.req_id)
             ~pid:balancer_pid ~tid:0 ~ts:sp.Fspan.end_ps ~name:"resp")
      end
      else
        (* Shed at the balancer: an instant marker on its track. *)
        push
          (Json.Obj
             [
               ("ph", Json.String "i");
               ("s", Json.String "t");
               ("name", Json.String (sp.Fspan.fn ^ " (shed-lb)"));
               ("pid", Json.Int balancer_pid);
               ("tid", Json.Int 0);
               ("ts", Json.Float (Slo.us sp.Fspan.submit_ps));
               args;
             ]))
    l.Tracefile.spans;
  Json.to_string (Json.Obj [ ("traceEvents", Json.List (procs @ List.rev !out)) ])

(* --- blame profiles, matching the single-node Export conventions --- *)

let blame_json l =
  let rows =
    List.map
      (fun (s : Report.fn_stats) ->
        let _, parts = tail_split s.tail_phase_ps in
        Json.Obj
          (Export.fn_fields ~names:phase_names s
          @ [
              ( "tail_share_pct",
                Json.Obj (List.map (fun (name, pct) -> (name, Json.Float pct)) parts) );
            ]))
      (by_function l)
  in
  Json.to_string
    (Json.Obj
       [
         ("offered", Json.Int l.Tracefile.offered_total);
         ("retained", Json.Int (List.length l.Tracefile.spans));
         ("functions", Json.List rows);
       ])

let blame_csv l =
  let tail_pct (s : Report.fn_stats) =
    let total = Array.fold_left ( + ) 0 s.tail_phase_ps in
    Array.map
      (fun v -> if total = 0 then 0.0 else 100.0 *. float_of_int v /. float_of_int total)
      s.tail_phase_ps
  in
  Export.profile_csv ~names:phase_names ~last:"tail_share_pct"
    (List.map (fun s -> (s, tail_pct s)) (by_function l))
