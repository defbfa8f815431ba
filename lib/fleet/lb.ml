type policy = Round_robin | Least_outstanding | Affinity

let spellings =
  [
    ("rr", Round_robin);
    ("round-robin", Round_robin);
    ("round_robin", Round_robin);
    ("lo", Least_outstanding);
    ("least-outstanding", Least_outstanding);
    ("least_outstanding", Least_outstanding);
    ("affinity", Affinity);
  ]

let names = [ "rr"; "lo"; "affinity" ]

let parse s =
  match List.assoc_opt (String.lowercase_ascii s) spellings with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown LB policy %S (expected %s)" s
           (String.concat "|" names))

let to_string = function
  | Round_robin -> "rr"
  | Least_outstanding -> "lo"
  | Affinity -> "affinity"

type view = {
  n : int;
  routable : int -> bool;
  outstanding : int -> int;
  spill : int;
}

type t = {
  pol : policy;
  mutable rr : int;
  mutable warm : int list array;  (* entry -> warm server ids, Up only *)
}

let create pol = { pol; rr = 0; warm = [||] }
let policy t = t.pol

(* Lowest id among routable servers with minimal outstanding. *)
let least_outstanding v =
  let best = ref (-1) and best_out = ref max_int in
  for i = 0 to v.n - 1 do
    if v.routable i then begin
      let o = v.outstanding i in
      if o < !best_out then begin
        best := i;
        best_out := o
      end
    end
  done;
  if !best < 0 then None else Some !best

let round_robin t v =
  let rec go tries =
    if tries >= v.n then None
    else begin
      let c = t.rr mod v.n in
      t.rr <- (t.rr + 1) mod v.n;
      if v.routable c then Some c else go (tries + 1)
    end
  in
  go 0

let ensure_entry t entry =
  let n = Array.length t.warm in
  if entry >= n then begin
    let warm = Array.make (Int.max (entry + 1) (2 * n)) [] in
    Array.blit t.warm 0 warm 0 n;
    t.warm <- warm
  end

(* The (outstanding, id) minimum of a warm list, or -1 when it is empty. *)
let rec best_warm v best best_out = function
  | [] -> best
  | s :: rest ->
      let o = v.outstanding s in
      if best < 0 || o < best_out || (o = best_out && s < best) then best_warm v s o rest
      else best_warm v best best_out rest

let pick t v ~entry =
  match t.pol with
  | Round_robin -> Option.map (fun s -> (s, false)) (round_robin t v)
  | Least_outstanding -> Option.map (fun s -> (s, false)) (least_outstanding v)
  | Affinity -> (
      ensure_entry t entry;
      let l = t.warm.(entry) in
      let s = best_warm v (-1) max_int l in
      if s >= 0 && v.outstanding s < v.spill then Some (s, true)
      else
        (* Spill: open the entry on the least-loaded server and remember
           the new warm route. *)
        match least_outstanding v with
        | None -> None
        | Some s ->
            if not (List.mem s l) then t.warm.(entry) <- s :: l;
            Some (s, false))

let forget t sid =
  Array.iteri (fun e l -> t.warm.(e) <- List.filter (fun s -> s <> sid) l) t.warm
