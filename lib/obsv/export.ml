module Trace = Jord_faas.Trace
module Json = Jord_util.Json

(* The one Chrome/Perfetto writer for single-node traces, live or loaded
   from a file, with flow events (parent -> child spawns and cross-server
   hops), and JSON/CSV blame profiles per function. *)

(* Flow-id spaces: spawn flows use the child's req_id, hop flows an offset
   counter, so the two families never collide. *)
let hop_flow_base = 1 lsl 30

let meta ~pid ?tid ~name what =
  Json.Obj
    ([ ("ph", Json.String "M"); ("pid", Json.Int pid); ("name", Json.String what) ]
    @ (match tid with Some tid -> [ ("tid", Json.Int tid) ] | None -> [])
    @ [ ("args", Json.Obj [ ("name", Json.String name) ]) ])

let flow ~ph ~id ~pid ~tid ~ts ~name =
  Json.Obj
    ([
       ("ph", Json.String ph);
       ("id", Json.Int id);
       ("cat", Json.String name);
       ("name", Json.String name);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
       ("ts", Json.Float (Slo.us ts));
     ]
    @ if ph = "f" then [ ("bp", Json.String "e") ] else [])

(* Process/thread metadata: Perfetto shows named tracks instead of bare
   tids. One process per server (pid = sid + 1, pid 0 is reserved), one
   thread per core that appears in the retained window. *)
let metadata ~orch_cores events =
  let seen = Hashtbl.create 16 and sids = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.core >= 0 then Hashtbl.replace seen (e.Trace.sid, e.Trace.core) ();
      Hashtbl.replace sids e.Trace.sid ())
    events;
  let procs =
    Hashtbl.fold
      (fun sid () acc ->
        meta ~pid:(sid + 1) ~name:(Printf.sprintf "jord server %d" sid) "process_name"
        :: acc)
      sids []
  in
  let threads =
    Hashtbl.fold
      (fun (sid, core) () acc ->
        let name =
          if List.mem core orch_cores then Printf.sprintf "orchestrator (core %d)" core
          else Printf.sprintf "core %d" core
        in
        meta ~pid:(sid + 1) ~tid:core ~name "thread_name" :: acc)
      seen []
  in
  List.sort compare procs @ List.sort compare threads

let entry (e : Trace.event) =
  let common =
    [
      ("name", Json.String (e.Trace.fn ^ "/" ^ Trace.kind_name e.Trace.kind));
      ("pid", Json.Int (e.Trace.sid + 1));
      ("tid", Json.Int (Int.max 0 e.Trace.core));
      ("ts", Json.Float (Slo.us e.Trace.at_ps));
      ( "args",
        Json.Obj
          ([
             ("req", Json.Int e.Trace.req_id);
             ("root", Json.Int e.Trace.root_id);
             ("fn", Json.String e.Trace.fn);
           ]
          @ (if e.Trace.parent_id < 0 then []
             else [ ("parent", Json.Int e.Trace.parent_id) ])
          @ (if e.Trace.stall_ps = 0 then []
             else [ ("vm_stall_us", Json.Float (Slo.us e.Trace.stall_ps)) ])
          @ if e.Trace.detail = "" then []
            else [ ("detail", Json.String e.Trace.detail) ]) );
    ]
  in
  match e.Trace.kind with
  | Trace.Segment ->
      Json.Obj
        (("ph", Json.String "X") :: ("dur", Json.Float (Slo.us e.Trace.dur_ps)) :: common)
  | Trace.Alert ->
      (* Global instant markers: SLO fire/resolve transitions line up with
         every span track on the Perfetto timeline. *)
      Json.Obj
        (("ph", Json.String "i") :: ("s", Json.String "g")
        :: ("name", Json.String (Printf.sprintf "slo:%s:%s" e.Trace.fn e.Trace.detail))
        :: List.filter (fun (k, _) -> k <> "name") common)
  | Trace.ServerDown | Trace.ServerUp ->
      Json.Obj
        (("ph", Json.String "i") :: ("s", Json.String "g")
        :: ("name",
            Json.String
              (Printf.sprintf "server%d:%s" e.Trace.sid
                 (if e.Trace.kind = Trace.ServerDown then "down" else "up")))
        :: List.filter (fun (k, _) -> k <> "name") common)
  | _ -> Json.Obj (("ph", Json.String "i") :: ("s", Json.String "t") :: common)

(* Spawn flows: an arrow from the parent's running segment at the child's
   birth to the child's first executor segment. *)
let spawn_flows (r : Span.result) =
  let out = ref [] in
  Span.iter_spans r (fun sp ->
      if sp.Span.parent_id >= 0 && sp.Span.born >= 0 then
        match Span.find r sp.Span.parent_id with
        | None -> ()
        | Some parent -> (
            let at_birth =
              List.find_opt
                (fun (s : Span.seg) -> s.Span.t0 <= sp.Span.born && sp.Span.born <= s.Span.t1)
                (Span.segments parent)
            in
            match (at_birth, Span.segments sp) with
            | Some pseg, first :: _ ->
                out :=
                  flow ~ph:"f" ~id:sp.Span.req_id ~pid:(first.Span.seg_sid + 1)
                    ~tid:first.Span.core ~ts:first.Span.t0 ~name:"spawn"
                  :: flow ~ph:"s" ~id:sp.Span.req_id ~pid:(pseg.Span.seg_sid + 1)
                       ~tid:pseg.Span.core ~ts:sp.Span.born ~name:"spawn"
                  :: !out
            | _ -> ()));
  List.rev !out

(* Hop flows: an arrow from each Forward event to the next Arrive of the
   same request (the wire transit, possibly to another server). *)
let hop_flows events =
  let pending = Hashtbl.create 16 in
  let seq = ref 0 in
  let out = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Forward ->
          incr seq;
          let id = hop_flow_base + !seq in
          Hashtbl.replace pending e.Trace.req_id id;
          out :=
            flow ~ph:"s" ~id ~pid:(e.Trace.sid + 1) ~tid:(Int.max 0 e.Trace.core)
              ~ts:e.Trace.at_ps ~name:"hop"
            :: !out
      | Trace.Arrive -> (
          match Hashtbl.find_opt pending e.Trace.req_id with
          | None -> ()
          | Some id ->
              Hashtbl.remove pending e.Trace.req_id;
              out :=
                flow ~ph:"f" ~id ~pid:(e.Trace.sid + 1) ~tid:(Int.max 0 e.Trace.core)
                  ~ts:e.Trace.at_ps ~name:"hop"
                :: !out)
      | _ -> ())
    events;
  List.rev !out

let chrome_json ?(orch_cores = []) ~events (r : Span.result) =
  let evs =
    metadata ~orch_cores events
    @ List.map entry events
    @ spawn_flows r @ hop_flows events
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.List evs) ])

(* Blame profiles: per entry function, end-to-end phase means plus the mean
   critical-path blame in ns. *)
let profile (r : Span.result) =
  let cp =
    Report.critical_path_means
      (List.map (fun sp -> (sp, Critical_path.of_root r sp)) (Report.complete_roots r))
  in
  (* Both tables cover the same complete roots, so every fn has a blame row. *)
  List.map
    (fun (s : Report.fn_stats) ->
      (s, Array.map (fun v -> v /. 1e3) (snd (List.assoc s.Report.fn cp))))
    (Report.by_function r)

let phase_fields ~names values =
  Json.Obj (Array.to_list (Array.mapi (fun i name -> (name, Json.Float values.(i))) names))

let fn_fields ~names (s : Report.fn_stats) =
  [
    ("fn", Json.String s.Report.fn);
    ("count", Json.Int s.Report.n);
    ("mean_us", Json.Float (s.Report.mean_ps /. 1e6));
    ("p50_us", Json.Float (Slo.us s.Report.p50_ps));
    ("p99_us", Json.Float (Slo.us s.Report.p99_ps));
    ( "phase_mean_ns",
      phase_fields ~names (Array.map (fun v -> v /. 1e3) s.Report.phase_mean_ps) );
  ]

let profile_csv ~names ~last rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("fn,count,mean_us,p50_us,p99_us,phase,mean_ns," ^ last ^ "\n");
  List.iter
    (fun ((s : Report.fn_stats), values) ->
      Array.iteri
        (fun i name ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%.4f,%.4f,%.4f,%s,%.2f,%.2f\n" s.Report.fn s.Report.n
               (s.Report.mean_ps /. 1e6)
               (Slo.us s.Report.p50_ps)
               (Slo.us s.Report.p99_ps)
               name
               (s.Report.phase_mean_ps.(i) /. 1e3)
               values.(i)))
        names)
    rows;
  Buffer.contents buf

let blame_json (r : Span.result) =
  let rows =
    List.map
      (fun (s, cp_ns) ->
        Json.Obj
          (fn_fields ~names:Report.phase_names s
          @ [ ("critical_path_mean_ns", phase_fields ~names:Report.phase_names cp_ns) ]))
      (profile r)
  in
  Json.to_string
    (Json.Obj
       [
         ("truncated", Json.Bool r.Span.truncated);
         ("functions", Json.List rows);
       ])

let blame_csv (r : Span.result) =
  profile_csv ~names:Report.phase_names ~last:"critical_path_ns" (profile r)
