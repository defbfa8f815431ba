module Trace = Jord_faas.Trace
module Json = Jord_util.Json

let chrome_json tr =
  Jord_obsv.Export.chrome_json ~events:(Trace.events tr) (Jord_obsv.Span.of_trace tr)

let test_json_emission () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.String "x\"y\\z\n");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Float 2.5 ]);
      ]
  in
  Alcotest.(check string) "rendered"
    "{\"a\":1,\"b\":\"x\\\"y\\\\z\\n\",\"c\":[true,null,2.5]}" (Json.to_string j)

let test_json_escape_control () =
  Alcotest.(check string) "control chars" "\\u0001" (Json.escape "\001")

let emit tr i kind =
  Trace.emit tr ~at_ps:(i * 1000) ~kind ~req_id:i ~root_id:0 ~fn:"f" ~core:(i mod 4) ()

let test_ring_buffer () =
  let tr = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    emit tr i Trace.Start
  done;
  Alcotest.(check int) "retains capacity" 4 (Trace.length tr);
  Alcotest.(check int) "counts all" 10 (Trace.total_emitted tr);
  let evs = Trace.events tr in
  Alcotest.(check (list int)) "keeps the newest, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Trace.req_id) evs)

let test_ring_below_capacity () =
  let tr = Trace.create ~capacity:8 () in
  for i = 0 to 2 do
    emit tr i Trace.Arrive
  done;
  Alcotest.(check (list int)) "in order" [ 0; 1; 2 ]
    (List.map (fun e -> e.Trace.req_id) (Trace.events tr))

let test_chrome_json_shape () =
  let tr = Trace.create () in
  emit tr 0 Trace.Arrive;
  Trace.emit tr ~at_ps:5000 ~kind:Trace.Segment ~req_id:1 ~root_id:0 ~fn:"g" ~core:2
    ~dur_ps:2500 ();
  let out = chrome_json tr in
  Alcotest.(check bool) "has traceEvents" true
    (String.length out > 0
    && String.sub out 0 15 = "{\"traceEvents\":");
  (* Span events carry ph=X and a duration. *)
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "span" true (contains "\"ph\":\"X\"" out);
  Alcotest.(check bool) "instant" true (contains "\"ph\":\"i\"" out);
  Alcotest.(check bool) "dur" true (contains "\"dur\":" out)

(* Function names containing JSON-hostile characters must survive the
   chrome-trace emission: parse the emitted document back and find them. *)
let test_chrome_json_escaping () =
  let tr = Trace.create () in
  let nasty = "fn\"quoted\\back\nline" in
  Trace.emit tr ~at_ps:1000 ~kind:Trace.Start ~req_id:0 ~root_id:0 ~fn:nasty ~core:0 ();
  let out = chrome_json tr in
  match Json.of_string out with
  | Error e -> Alcotest.fail ("emitted trace is not valid JSON: " ^ e)
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.List evs) ->
          let arg_fns =
            List.filter_map
              (fun ev ->
                match Option.bind (Json.member "args" ev) (Json.member "fn") with
                | Some (Json.String s) -> Some s
                | _ -> None)
              evs
          in
          Alcotest.(check bool) "fn round-trips" true (List.mem nasty arg_fns);
          (* The display name embeds the fn too and must stay escaped. *)
          let names =
            List.filter_map
              (fun ev ->
                match Json.member "name" ev with
                | Some (Json.String s) -> Some s
                | _ -> None)
              evs
          in
          Alcotest.(check bool) "name keeps the fn" true
            (List.exists
               (fun s ->
                 String.length s > String.length nasty
                 && String.sub s 0 (String.length nasty) = nasty)
               names)
      | _ -> Alcotest.fail "no traceEvents list")

let test_ring_wrap_then_chrome_json () =
  (* Wraparound and emission compose: only retained events are serialized,
     and the document stays parseable after the ring has cycled. *)
  let tr = Trace.create ~capacity:3 () in
  for i = 0 to 7 do
    emit tr i Trace.Dispatch
  done;
  match Json.of_string (chrome_json tr) with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.List evs) ->
          (* Metadata (ph:"M") rides along; only retained events are real. *)
          let is_meta ev = Json.member "ph" ev = Some (Json.String "M") in
          Alcotest.(check int) "retained only" 3
            (List.length (List.filter (fun ev -> not (is_meta ev)) evs));
          Alcotest.(check bool) "names tracks" true
            (List.exists is_meta evs)
      | _ -> Alcotest.fail "no traceEvents list")

let test_server_emits () =
  let app = Jord_workloads.Hipster.app in
  let tr = Trace.create () in
  let _, recorder =
    Jord_workloads.Loadgen.run ~warmup:0 ~tracer:tr ~app
      ~config:Jord_faas.Server.default_config ~rate_mrps:0.5 ~duration_us:200.0 ()
  in
  let n = Jord_metrics.Recorder.count recorder in
  Alcotest.(check bool) "ran" true (n > 20);
  let evs = Trace.events tr in
  let by k = List.length (List.filter (fun e -> e.Trace.kind = k) evs) in
  Alcotest.(check int) "one arrive per external" (by Trace.Arrive)
    (List.length (List.filter (fun e -> e.Trace.kind = Trace.Arrive) evs));
  (* Every start was preceded by an arrival (external submit or internal
     child birth), and unfinished tails can leave extra arrivals. *)
  Alcotest.(check bool) "arrivals >= starts" true (by Trace.Arrive >= by Trace.Start);
  Alcotest.(check bool) "dispatches recorded" true (by Trace.Dispatch > 0);
  Alcotest.(check bool) "completes match starts" true (by Trace.Complete = by Trace.Start);
  (* Timestamps are monotone. *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a.Trace.at_ps <= b.Trace.at_ps && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone timestamps" true (monotone evs)

let suite =
  [
    Alcotest.test_case "json emission" `Quick test_json_emission;
    Alcotest.test_case "json escape" `Quick test_json_escape_control;
    Alcotest.test_case "ring buffer" `Quick test_ring_buffer;
    Alcotest.test_case "ring below capacity" `Quick test_ring_below_capacity;
    Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
    Alcotest.test_case "chrome json escaping" `Quick test_chrome_json_escaping;
    Alcotest.test_case "ring wrap + chrome json" `Quick test_ring_wrap_then_chrome_json;
    Alcotest.test_case "server emits" `Quick test_server_emits;
  ]
