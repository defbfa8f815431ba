type span = {
  id : int;
  parent : int;
  name : string;
  start : float;
  mutable stop : float;
  mutable attrs : (string * float) list;
}

type t = { origin : float; mutable spans : span list; mutable next : int }

let create () = { origin = Unix.gettimeofday (); spans = []; next = 0 }

let start t ?(parent = -1) name =
  match t with
  | None -> -1
  | Some t ->
      let id = t.next in
      t.next <- id + 1;
      let start = Unix.gettimeofday () -. t.origin in
      t.spans <- { id; parent; name; start; stop = start; attrs = [] } :: t.spans;
      id

let stop t id attrs =
  match t with
  | None -> ()
  | Some t -> (
      let stop = Unix.gettimeofday () -. t.origin in
      match List.find_opt (fun s -> s.id = id) t.spans with
      | Some s ->
          s.stop <- stop;
          s.attrs <- attrs
      | None -> invalid_arg "Spans.stop: unknown span")

let count t = t.next

let write t ~path =
  let oc = open_out path in
  List.iter
    (fun s ->
      let open Jord_util.Json in
      let fields =
        [
          ("id", Int s.id);
          ("parent", Int s.parent);
          ("name", String s.name);
          ("start_s", Float s.start);
          ("dur_s", Float (s.stop -. s.start));
        ]
        @ List.map (fun (k, v) -> (k, Float v)) s.attrs
      in
      output_string oc (to_string (Obj fields));
      output_char oc '\n')
    (List.rev t.spans);
  close_out oc
