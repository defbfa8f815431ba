module Trace = Jord_faas.Trace
module Json = Jord_util.Json

(* JSONL trace files of both kinds: one header object, then one compact
   object per event (oldest retained first) or per span (by request id, the
   sampler's canonical order). All times are integer picoseconds — the
   format round-trips exactly (the Chrome export's float microseconds do
   not), which the conservation checks depend on. *)

let format_version = 1

let write ~path header lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (Json.Obj header));
      output_char oc '\n';
      lines oc)

let save ~path ?(meta = []) tr =
  write ~path
    ([
       ("jord_trace", Json.Int format_version);
       ("total_emitted", Json.Int (Trace.total_emitted tr));
       ("capacity", Json.Int (Trace.capacity tr));
       ("truncated", Json.Bool (Trace.truncated tr));
     ]
    @ meta)
    (fun oc ->
      let buf = Buffer.create 256 in
      Trace.iter tr (fun e ->
          Buffer.clear buf;
          Buffer.add_string buf
            (Printf.sprintf "{\"a\":%d,\"k\":\"%s\",\"r\":%d,\"g\":%d" e.Trace.at_ps
               (Trace.kind_name e.Trace.kind)
               e.Trace.req_id e.Trace.root_id);
          if e.Trace.parent_id >= 0 then
            Buffer.add_string buf (Printf.sprintf ",\"p\":%d" e.Trace.parent_id);
          Buffer.add_string buf
            (Printf.sprintf ",\"f\":\"%s\",\"c\":%d" (Json.escape e.Trace.fn)
               e.Trace.core);
          if e.Trace.sid <> 0 then
            Buffer.add_string buf (Printf.sprintf ",\"s\":%d" e.Trace.sid);
          if e.Trace.dur_ps <> 0 then
            Buffer.add_string buf (Printf.sprintf ",\"d\":%d" e.Trace.dur_ps);
          if e.Trace.stall_ps <> 0 then
            Buffer.add_string buf (Printf.sprintf ",\"v\":%d" e.Trace.stall_ps);
          if e.Trace.detail <> "" then
            Buffer.add_string buf
              (Printf.sprintf ",\"x\":\"%s\"" (Json.escape e.Trace.detail));
          Buffer.add_string buf "}\n";
          Buffer.output_buffer oc buf))

let save_fleet ~path ?(meta = []) tracer =
  let spans = Ftrace.retained tracer in
  write ~path
    ([
       ("jord_fleet_trace", Json.Int format_version);
       ("offered", Json.Int (Ftrace.offered tracer));
       ("retained", Json.Int (List.length spans));
       ("reservoir", Json.Int (Ftrace.reservoir tracer));
       ("seed", Json.Int (Ftrace.seed tracer));
     ]
    @ meta)
    (fun oc ->
      List.iter
        (fun (keep, sp) ->
          output_string oc (Fspan.to_json_line ~keep sp);
          output_char oc '\n')
        spans)

type server = {
  events : Trace.event list;  (** Oldest first. *)
  truncated : bool;
  total_emitted : int;
  capacity : int;
  meta : Json.t;  (** The whole header object. *)
}

type fleet = {
  spans : (string * Fspan.t) list;  (** [(keep_reason, span)], by req id. *)
  offered_total : int;
  meta : Json.t;  (** The whole header object. *)
}

type t = Server of server | Fleet of fleet

let event_of_json j =
  let kind_name = Json.str_member "k" j in
  match Trace.kind_of_name kind_name with
  | None -> Error (Printf.sprintf "unknown event kind %S" kind_name)
  | Some kind ->
      Ok
        {
          Trace.at_ps = Json.int_member "a" j;
          kind;
          req_id = Json.int_member "r" j;
          root_id = Json.int_member "g" j;
          parent_id = Json.int_member ~default:(-1) "p" j;
          fn = Json.str_member "f" j;
          core = Json.int_member "c" j;
          sid = Json.int_member "s" j;
          dur_ps = Json.int_member "d" j;
          stall_ps = Json.int_member "v" j;
          detail = Json.str_member "x" j;
        }

(* The lines after the header, each parsed and [decode]d; blank lines are
   skipped but counted, so errors name the file line. *)
let read_lines ~path ic decode =
  let rec go n acc =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | "" -> go (n + 1) acc
    | line -> (
        match Result.bind (Json.of_string line) decode with
        | Error msg -> Error (Printf.sprintf "%s:%d: %s" path n msg)
        | Ok x -> go (n + 1) (x :: acc))
  in
  go 2 []

let load ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> Error (path ^ ": empty trace file")
          | first -> (
              match Json.of_string first with
              | Error msg -> Error (Printf.sprintf "%s:1: %s" path msg)
              | Ok header when Json.member "jord_fleet_trace" header <> None ->
                  Result.map
                    (fun spans ->
                      Fleet
                        {
                          spans;
                          offered_total = Json.int_member "offered" header;
                          meta = header;
                        })
                    (read_lines ~path ic Fspan.of_json)
              | Ok header when Json.member "jord_trace" header <> None ->
                  Result.map
                    (fun events ->
                      Server
                        {
                          events;
                          truncated =
                            (match Json.member "truncated" header with
                            | Some (Json.Bool b) -> b
                            | _ -> false);
                          total_emitted = Json.int_member "total_emitted" header;
                          capacity = Json.int_member "capacity" header;
                          meta = header;
                        })
                    (read_lines ~path ic event_of_json)
              | Ok _ ->
                  Error (path ^ ": not a jord trace file (missing jord_trace header)")))

let orch_cores (loaded : server) =
  match Json.member "orch_cores" loaded.meta with
  | Some (Json.List l) ->
      List.filter_map (function Json.Int i -> Some i | _ -> None) l
  | _ -> []

let spans loaded =
  Span.build ~truncated:loaded.truncated (fun f -> List.iter f loaded.events)
