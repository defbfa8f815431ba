open Jord_sim

let test_time_conversions () =
  Alcotest.(check int) "1ns = 1000ps" 1000 (Time.of_ns 1.0);
  Alcotest.(check (float 1e-9)) "roundtrip" 2.5 (Time.to_ns (Time.of_ns 2.5));
  Alcotest.(check (float 1e-9)) "us" 3.0 (Time.to_us (Time.of_us 3.0))

let test_event_queue_order () =
  let q = Event_queue.create () in
  let push time v = ignore (Event_queue.push q ~time v : Event_queue.handle) in
  push 300 "c";
  push 100 "a";
  push 200 "b";
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    ignore (Event_queue.push q ~time:42 i : Event_queue.handle)
  done;
  for i = 0 to 9 do
    match Event_queue.pop q with
    | Some (t, v) ->
        Alcotest.(check int) "time" 42 t;
        Alcotest.(check int) "fifo within same timestamp" i v
    | None -> Alcotest.fail "queue drained early"
  done

let test_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option int)) "empty peek" None (Event_queue.peek_time q);
  ignore (Event_queue.push q ~time:7 () : Event_queue.handle);
  Alcotest.(check (option int)) "peek" (Some 7) (Event_queue.peek_time q);
  Alcotest.(check int) "peek does not pop" 1 (Event_queue.length q)

let prop_pop_sorted =
  QCheck.Test.make ~name:"event queue pops in non-decreasing time order"
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.push q ~time:t () : Event_queue.handle)) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain min_int)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~after:(Time.of_ns 30.0) (fun _ -> log := "c" :: !log);
  Engine.schedule e ~after:(Time.of_ns 10.0) (fun _ -> log := "a" :: !log);
  Engine.schedule e ~after:(Time.of_ns 20.0) (fun _ -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "processed" 3 (Engine.processed e)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let fired_at = ref Time.zero in
  Engine.schedule e ~after:(Time.of_ns 5.0) (fun e ->
      Engine.schedule e ~after:(Time.of_ns 7.0) (fun e -> fired_at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "nested absolute time" 12.0 (Time.to_ns !fired_at)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick eng =
    incr count;
    Engine.schedule eng ~after:(Time.of_ns 10.0) tick
  in
  Engine.schedule e ~after:(Time.of_ns 10.0) tick;
  Engine.run ~until:(Time.of_ns 55.0) e;
  Alcotest.(check int) "events up to the limit only" 5 !count;
  Alcotest.(check int) "remaining event stays queued" 1 (Engine.pending e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~after:(-1) (fun _ -> ()))

let suite =
  [
    Alcotest.test_case "time conversions" `Quick test_time_conversions;
    Alcotest.test_case "event queue order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue FIFO ties" `Quick test_event_queue_fifo_ties;
    Alcotest.test_case "peek" `Quick test_peek;
    QCheck_alcotest.to_alcotest prop_pop_sorted;
    Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
    Alcotest.test_case "engine nested schedule" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine rejects past" `Quick test_engine_rejects_past;
  ]
