type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf (String k);
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  to_buffer buf t;
  Buffer.contents buf

(* --- parsing (recursive descent over the full JSON grammar; numbers with
   a '.', exponent or out-of-int range become Float, the rest Int) --- *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | Some _ | None -> ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | Some x -> fail cur (Printf.sprintf "expected %c, found %c" c x)
  | None -> fail cur (Printf.sprintf "expected %c, found end of input" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.text
    && String.sub cur.text cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur ("expected " ^ word)

let parse_string_body cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if cur.pos + 4 > String.length cur.text then fail cur "bad \\u escape";
                let hex = String.sub cur.text cur.pos 4 in
                cur.pos <- cur.pos + 4;
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> fail cur "bad \\u escape"
                in
                (* Only BMP code points below 0x80 round-trip exactly; ours
                   are escaped control characters, so this suffices. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_string buf (Printf.sprintf "\\u%04x" code)
            | c -> fail cur (Printf.sprintf "bad escape \\%c" c));
            go ())
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek cur with Some c -> is_num_char c | None -> false) do
    advance cur
  done;
  let s = String.sub cur.text start (cur.pos - start) in
  let is_float = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s in
  if is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail cur ("bad number " ^ s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail cur ("bad number " ^ s))

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '"' -> String (parse_string_body cur)
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws cur;
          let k = parse_string_body cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance cur;
              List.rev ((k, v) :: acc)
          | _ -> fail cur "expected , or } in object"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> fail cur "expected , or ] in array"
        in
        List (items [])
      end
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

let of_string s =
  try
    let cur = { text = s; pos = 0 } in
    let v = parse_value cur in
    skip_ws cur;
    if cur.pos <> String.length s then Error "trailing characters after JSON value"
    else Ok v
  with Parse_error msg -> Error msg

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let int_member ?(default = 0) key j =
  match member key j with Some (Int i) -> i | _ -> default

let str_member ?(default = "") key j =
  match member key j with Some (String s) -> s | _ -> default
