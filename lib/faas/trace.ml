type kind =
  | Arrive
  | Dispatch
  | Start
  | Segment
  | Suspend
  | Resume
  | Complete
  | Forward
  | Drop
  | Timeout
  | Retry
  | Crash
  | Recover
  | Duplicate
  | Alert
  | ServerDown
  | ServerUp

type event = {
  at_ps : int;
  kind : kind;
  req_id : int;
  root_id : int;
  parent_id : int;
  fn : string;
  core : int;
  sid : int;
  dur_ps : int;
  stall_ps : int;
  detail : string;
}

type t = {
  ring : event option array;
  mutable next : int;
  mutable total : int;
  mutable sink : (event -> unit) option;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create";
  { ring = Array.make capacity None; next = 0; total = 0; sink = None }

let set_sink t sink = t.sink <- sink

let emit t ~at_ps ~kind ~req_id ~root_id ?(parent_id = -1) ~fn ~core ?(sid = 0)
    ?(dur_ps = 0) ?(stall_ps = 0) ?(detail = "") () =
  let e =
    { at_ps; kind; req_id; root_id; parent_id; fn; core; sid; dur_ps; stall_ps; detail }
  in
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1;
  match t.sink with None -> () | Some f -> f e

(* Re-emit an already-built event (the cluster's post-run merge of
   per-shard rings): same ring append and sink fan-out as [emit]. *)
let emit_event t e =
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1;
  match t.sink with None -> () | Some f -> f e

let length t = Int.min t.total (Array.length t.ring)
let total_emitted t = t.total
let capacity t = Array.length t.ring
let truncated t = t.total > Array.length t.ring

let iter t f =
  let cap = Array.length t.ring in
  let n = length t in
  let start = if t.total <= cap then 0 else t.next in
  for i = 0 to n - 1 do
    match t.ring.((start + i) mod cap) with
    | Some e -> f e
    | None -> invalid_arg "Trace.iter: ring corrupted"
  done

let fold t ~init f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let events t =
  List.rev (fold t ~init:[] (fun acc e -> e :: acc))

let kind_name = function
  | Arrive -> "arrive"
  | Dispatch -> "dispatch"
  | Start -> "start"
  | Segment -> "segment"
  | Suspend -> "suspend"
  | Resume -> "resume"
  | Complete -> "complete"
  | Forward -> "forward"
  | Drop -> "drop"
  | Timeout -> "timeout"
  | Retry -> "retry"
  | Crash -> "crash"
  | Recover -> "recover"
  | Duplicate -> "duplicate"
  | Alert -> "alert"
  | ServerDown -> "server_down"
  | ServerUp -> "server_up"

let kind_of_name = function
  | "arrive" -> Some Arrive
  | "dispatch" -> Some Dispatch
  | "start" -> Some Start
  | "segment" -> Some Segment
  | "suspend" -> Some Suspend
  | "resume" -> Some Resume
  | "complete" -> Some Complete
  | "forward" -> Some Forward
  | "drop" -> Some Drop
  | "timeout" -> Some Timeout
  | "retry" -> Some Retry
  | "crash" -> Some Crash
  | "recover" -> Some Recover
  | "duplicate" -> Some Duplicate
  | "alert" -> Some Alert
  | "server_down" -> Some ServerDown
  | "server_up" -> Some ServerUp
  | _ -> None

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.next <- 0;
  t.total <- 0
