module Trace = Jord_faas.Trace
module Json = Jord_util.Json

(* JSONL trace files: one header object, then one compact object per event,
   oldest retained first. All times are integer picoseconds — the format
   round-trips exactly (the Chrome export's float microseconds do not),
   which the conservation checks depend on. *)

let format_version = 1

let save ~path ?(meta = []) tr =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let header =
        Json.Obj
          ([
             ("jord_trace", Json.Int format_version);
             ("total_emitted", Json.Int (Trace.total_emitted tr));
             ("capacity", Json.Int (Trace.capacity tr));
             ("truncated", Json.Bool (Trace.truncated tr));
           ]
          @ meta)
      in
      output_string oc (Json.to_string header);
      output_char oc '\n';
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

type loaded = {
  events : Trace.event list;  (** Oldest first. *)
  truncated : bool;
  total_emitted : int;
  capacity : int;
  meta : Json.t;  (** The whole header object. *)
}

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

let load ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let parse_line n line =
            match Json.of_string line with
            | Error msg -> Error (Printf.sprintf "%s:%d: %s" path n msg)
            | Ok j -> Ok j
          in
          match input_line ic with
          | exception End_of_file -> Error (path ^ ": empty trace file")
          | first -> (
              match parse_line 1 first with
              | Error _ as e -> e
              | Ok header when Json.member "jord_trace" header = None ->
                  Error (path ^ ": not a jord trace file (missing jord_trace header)")
              | Ok header ->
                  let rec go n acc =
                    match input_line ic with
                    | exception End_of_file -> Ok (List.rev acc)
                    | "" -> go (n + 1) acc
                    | line -> (
                        match parse_line n line with
                        | Error _ as e -> e
                        | Ok j -> (
                            match event_of_json j with
                            | Error msg ->
                                Error (Printf.sprintf "%s:%d: %s" path n msg)
                            | Ok e -> go (n + 1) (e :: acc)))
                  in
                  Result.map
                    (fun events ->
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
                    (go 2 [])))

let orch_cores loaded =
  match Json.member "orch_cores" loaded.meta with
  | Some (Json.List l) ->
      List.filter_map (function Json.Int i -> Some i | _ -> None) l
  | _ -> []

let spans loaded =
  Span.build ~truncated:loaded.truncated (fun f -> List.iter f loaded.events)
