type kind = Latency | Availability

type objective = {
  name : string;
  fn : string option;
  kind : kind;
  percentile : float;
  threshold_ps : int;
  window_ps : int;
  budget : float;
  fast_windows : int;
  slow_windows : int;
  burn_threshold : float;
}

let ps_of_us us = int_of_float (us *. 1e6)
let us ps = float_of_int ps /. 1e6

let default =
  {
    name = "p99-latency";
    fn = None;
    kind = Latency;
    percentile = 99.0;
    threshold_ps = ps_of_us 25.0;
    window_ps = ps_of_us 250.0;
    budget = 0.01;
    fast_windows = 1;
    slow_windows = 4;
    burn_threshold = 1.0;
  }

let presets =
  [
    ("none", []);
    ("default", [ default ]);
    ( "tight",
      [
        {
          default with
          name = "p99-tight";
          threshold_ps = ps_of_us 5.0;
          budget = 0.005;
          window_ps = ps_of_us 100.0;
          slow_windows = 6;
        };
      ] );
    ( "ci",
      [
        {
          default with
          name = "p99-burn";
          threshold_ps = ps_of_us 8.0;
          window_ps = ps_of_us 100.0;
          budget = 0.02;
          slow_windows = 3;
        };
      ] );
  ]

let validate o =
  if o.name = "" then Error "objective name must be non-empty"
  else if not (o.percentile > 0.0 && o.percentile < 100.0) then
    Error (Printf.sprintf "%s: p must be in (0, 100)" o.name)
  else if o.threshold_ps <= 0 then
    Error (Printf.sprintf "%s: threshold_us must be > 0" o.name)
  else if o.window_ps <= 0 then
    Error (Printf.sprintf "%s: window_us must be > 0" o.name)
  else if not (o.budget > 0.0 && o.budget < 1.0) then
    Error (Printf.sprintf "%s: budget must be in (0, 1)" o.name)
  else if o.fast_windows < 1 then
    Error (Printf.sprintf "%s: fast must be >= 1" o.name)
  else if o.slow_windows < o.fast_windows then
    Error (Printf.sprintf "%s: slow must be >= fast" o.name)
  else if not (o.burn_threshold > 0.0) then
    Error (Printf.sprintf "%s: burn must be > 0" o.name)
  else Ok o

(* One objective from comma-separated key=value fields, starting from
   [base] (a preset objective or [default]). [auto_name] invents a
   "p99<25us"-style name for unnamed inline objectives; preset-seeded
   objectives keep the preset's name instead. *)
let parse_fields ?(auto_name = true) ~base fields =
  let float_field k v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s: expected a number, got %S" k v)
  in
  let int_field k v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "%s: expected an integer, got %S" k v)
  in
  let ( let* ) = Result.bind in
  let named = ref false in
  let rec go o = function
    | [] -> Ok o
    | field :: rest -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" field)
        | Some i -> (
            let k = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            match k with
            | "name" ->
                named := true;
                go { o with name = v } rest
            | "fn" -> go { o with fn = (if v = "" then None else Some v) } rest
            | "kind" -> (
                match v with
                | "latency" -> go { o with kind = Latency } rest
                | "availability" -> go { o with kind = Availability } rest
                | _ ->
                    Error
                      (Printf.sprintf
                         "kind: expected latency or availability, got %S" v))
            | "p" ->
                let* f = float_field k v in
                (* Changing the percentile re-derives the default budget
                   unless one is given explicitly later. *)
                go { o with percentile = f; budget = (100.0 -. f) /. 100.0 } rest
            | "threshold_us" ->
                let* f = float_field k v in
                go { o with threshold_ps = ps_of_us f } rest
            | "window_us" ->
                let* f = float_field k v in
                go { o with window_ps = ps_of_us f } rest
            | "budget" ->
                let* f = float_field k v in
                go { o with budget = f } rest
            | "fast" ->
                let* i = int_field k v in
                go { o with fast_windows = i } rest
            | "slow" ->
                let* i = int_field k v in
                go { o with slow_windows = i } rest
            | "burn" ->
                let* f = float_field k v in
                go { o with burn_threshold = f } rest
            | _ ->
                Error
                  (Printf.sprintf
                     "unknown key %S (valid: name, fn, kind, p, threshold_us, \
                      window_us, budget, fast, slow, burn)"
                     k)))
  in
  let* o = go base fields in
  let o =
    if (not auto_name) || !named || o.name <> base.name then o
    else
      { o with
        name =
          (let suffix =
             match o.fn with None -> "" | Some fn -> ":" ^ fn
           in
           match o.kind with
           | Latency ->
               Printf.sprintf "p%g<%gus%s" o.percentile
                 (float_of_int o.threshold_ps /. 1e6)
                 suffix
           | Availability ->
               Printf.sprintf "avail>=%g%%%s"
                 (100.0 *. (1.0 -. o.budget))
                 suffix);
      }
  in
  validate o

let split sep s =
  String.split_on_char sep s |> List.map String.trim
  |> List.filter (fun f -> f <> "")

let check_unique objectives =
  let rec go seen = function
    | [] -> Ok objectives
    | o :: rest ->
        if List.mem o.name seen then
          Error (Printf.sprintf "duplicate objective name %S" o.name)
        else go (o.name :: seen) rest
  in
  go [] objectives

let parse spec =
  let spec = String.trim spec in
  match List.assoc_opt spec presets with
  | Some objectives -> Ok objectives
  | None -> (
      let parts = split ';' spec in
      if parts = [] then Error "empty SLO spec"
      else
        let parse_one part =
          match split ',' part with
          | [] -> Error "empty objective"
          | first :: rest as fields -> (
              (* A preset name in first position seeds the objective and the
                 remaining fields override it (fault-plan style). *)
              match List.assoc_opt first presets with
              | Some [ base ] -> parse_fields ~auto_name:false ~base rest
              | Some _ ->
                  Error
                    (Printf.sprintf "preset %S cannot take overrides" first)
              | None -> parse_fields ~base:default fields)
        in
        let rec go acc = function
          | [] -> check_unique (List.rev acc)
          | part :: rest -> (
              match parse_one part with
              | Ok o -> go (o :: acc) rest
              | Error e -> Error e)
        in
        go [] parts)

let load ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go n acc =
            match input_line ic with
            | exception End_of_file -> check_unique (List.rev acc)
            | line -> (
                let line = String.trim line in
                if line = "" || line.[0] = '#' then go (n + 1) acc
                else
                  match parse line with
                  | Ok objectives -> go (n + 1) (List.rev_append objectives acc)
                  | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
          in
          go 1 [])

let applies o ~fn = match o.fn with None -> true | Some f -> String.equal f fn

let parse_arg arg = if Sys.file_exists arg then load ~path:arg else parse arg

let to_string o =
  Printf.sprintf
    "name=%s%s%s,p=%g,threshold_us=%g,window_us=%g,budget=%g,fast=%d,slow=%d,burn=%g"
    o.name
    (match o.fn with None -> "" | Some fn -> ",fn=" ^ fn)
    (match o.kind with Latency -> "" | Availability -> ",kind=availability")
    o.percentile
    (float_of_int o.threshold_ps /. 1e6)
    (float_of_int o.window_ps /. 1e6)
    o.budget o.fast_windows o.slow_windows o.burn_threshold

let describe o =
  match o.kind with
  | Latency ->
      Printf.sprintf
        "p%g%s < %gus (budget %g%%, %gus windows, burn >= %g over %d/%d windows)"
        o.percentile
        (match o.fn with None -> "" | Some fn -> " of " ^ fn)
        (float_of_int o.threshold_ps /. 1e6)
        (100.0 *. o.budget)
        (float_of_int o.window_ps /. 1e6)
        o.burn_threshold o.fast_windows o.slow_windows
  | Availability ->
      Printf.sprintf
        "availability%s >= %g%% (budget %g%%, %gus windows, burn >= %g over \
         %d/%d windows)"
        (match o.fn with None -> "" | Some fn -> " of " ^ fn)
        (100.0 *. (1.0 -. o.budget))
        (100.0 *. o.budget)
        (float_of_int o.window_ps /. 1e6)
        o.burn_threshold o.fast_windows o.slow_windows

(* --- evaluation --- *)

type transition = {
  tr_at_ps : int;
  tr_objective : string;
  tr_firing : bool;
  tr_window : int;
  tr_burn_fast : float;
  tr_burn_slow : float;
}

type window = {
  w_index : int;
  w_total : int;
  w_bad : int;
  w_burn_fast : float;
  w_burn_slow : float;
  w_firing : bool;
  w_exemplar_ps : int;
  w_exemplar : int;
}

(* One open window's counts, reused once it closes. *)
type slot = {
  mutable total : int;
  mutable bad : int;
  mutable ex_ps : int;  (* the slowest traced completion, or -1 *)
  mutable ex_id : int;
}

type evaluator = {
  obj : objective;
  mutable next : int;  (* oldest open window = windows closed so far *)
  mutable wins : slot array;  (* open window [i] at [i land (length - 1)] *)
  sketch : Jord_telemetry.Sketch.t;  (* completion latencies, run-long *)
  mutable requests : int;
  mutable bad : int;
  mutable shed : int;
  mutable firing : bool;
  mutable fired : int;
  mutable resolved : int;
  mutable history : window list;  (* newest first *)
  mutable trans : transition list;  (* newest first *)
  mutable on_close : window -> transition option -> unit;
}

let slots n = Array.init n (fun _ -> { total = 0; bad = 0; ex_ps = -1; ex_id = -1 })

let evaluator obj =
  {
    obj;
    next = 0;
    wins = slots 4;
    sketch = Jord_telemetry.Sketch.create ();
    requests = 0;
    bad = 0;
    shed = 0;
    firing = false;
    fired = 0;
    resolved = 0;
    history = [];
    trans = [];
    on_close = (fun _ _ -> ());
  }

let objective e = e.obj
let on_close e f = e.on_close <- f

let record e ~at_ps ~latency_ps ~shed ~trace_id =
  let o = e.obj in
  let idx = Int.max e.next (at_ps / o.window_ps) in
  (* A window further ahead than the ring holds: double it until it fits. *)
  while idx - e.next >= Array.length e.wins do
    let n = Array.length e.wins in
    let wins = slots (2 * n) in
    for i = e.next to e.next + n - 1 do
      wins.(i land ((2 * n) - 1)) <- e.wins.(i land (n - 1))
    done;
    e.wins <- wins
  done;
  let w = e.wins.(idx land (Array.length e.wins - 1)) in
  let bad =
    shed
    || match o.kind with Latency -> latency_ps > o.threshold_ps | Availability -> false
  in
  e.requests <- e.requests + 1;
  w.total <- w.total + 1;
  if bad then begin
    e.bad <- e.bad + 1;
    w.bad <- w.bad + 1
  end;
  if shed then begin
    e.shed <- e.shed + 1;
    false
  end
  else begin
    Jord_telemetry.Sketch.add_ex e.sketch latency_ps ~ex:trace_id;
    let slowest =
      trace_id >= 0
      && (latency_ps > w.ex_ps || (latency_ps = w.ex_ps && trace_id < w.ex_id))
    in
    if slowest then begin
      w.ex_ps <- latency_ps;
      w.ex_id <- trace_id
    end;
    slowest
  end

(* Burn rate over the closing window's counts and the [k - 1] closed
   windows before it, within the slow horizon. *)
let burn e ~total ~bad k =
  let rec go k total bad = function
    | w :: rest when k > 0 -> go (k - 1) (total + w.w_total) (bad + w.w_bad) rest
    | _ ->
        (if total = 0 then 0.0 else float_of_int bad /. float_of_int total)
        /. e.obj.budget
  in
  go (Int.min k e.obj.slow_windows - 1) total bad e.history

let close_open e =
  let o = e.obj and idx = e.next in
  let slot = e.wins.(idx land (Array.length e.wins - 1)) in
  let total = slot.total and bad = slot.bad in
  let burn_fast = burn e ~total ~bad o.fast_windows
  and burn_slow = burn e ~total ~bad o.slow_windows in
  let firing = burn_fast >= o.burn_threshold && burn_slow >= o.burn_threshold in
  let w =
    {
      w_index = idx;
      w_total = total;
      w_bad = bad;
      w_burn_fast = burn_fast;
      w_burn_slow = burn_slow;
      w_firing = firing;
      w_exemplar_ps = slot.ex_ps;
      w_exemplar = slot.ex_id;
    }
  in
  slot.total <- 0;
  slot.bad <- 0;
  slot.ex_ps <- -1;
  slot.ex_id <- -1;
  e.next <- idx + 1;
  e.history <- w :: e.history;
  let tr =
    if firing = e.firing then None
    else begin
      e.firing <- firing;
      if firing then e.fired <- e.fired + 1 else e.resolved <- e.resolved + 1;
      let tr =
        {
          tr_at_ps = (idx + 1) * o.window_ps;
          tr_objective = o.name;
          tr_firing = firing;
          tr_window = idx;
          tr_burn_fast = burn_fast;
          tr_burn_slow = burn_slow;
        }
      in
      e.trans <- tr :: e.trans;
      Some tr
    end
  in
  e.on_close w tr

let advance e ~at_ps =
  while (e.next + 1) * e.obj.window_ps <= at_ps do
    close_open e
  done

let open_requests e = e.wins.(e.next land (Array.length e.wins - 1)).total
let sketch e = e.sketch
let quantile e = Jord_telemetry.Sketch.quantile e.sketch e.obj.percentile
let requests e = e.requests
let bad e = e.bad
let shed e = e.shed
let windows_closed e = e.next
let fired e = e.fired
let resolved e = e.resolved
let firing e = e.firing
let windows e = List.rev e.history
let transitions e = List.rev e.trans

let merge_transitions evaluators =
  List.concat_map transitions evaluators
  |> List.sort (fun a b ->
         compare (a.tr_at_ps, a.tr_objective) (b.tr_at_ps, b.tr_objective))

(* --- verdicts --- *)

let budget_used e =
  if e.requests = 0 then 0.0
  else float_of_int e.bad /. (e.obj.budget *. float_of_int e.requests) *. 100.0

let verdict e =
  if e.firing then "FIRING"
  else if e.requests = 0 then "no-data"
  else
    let within = budget_used e <= 100.0 in
    match e.obj.kind with
    | Availability -> if within then "met" else "VIOLATED"
    | Latency -> if quantile e <= e.obj.threshold_ps && within then "met" else "VIOLATED"

let verdict_cells e =
  let o = e.obj in
  [
    o.name;
    (match o.fn with None -> "*" | Some fn -> fn);
    (match o.kind with
    | Latency -> Printf.sprintf "p%g<%.1fus" o.percentile (us o.threshold_ps)
    | Availability -> Printf.sprintf "avail>=%g%%" (100.0 *. (1.0 -. o.budget)));
    string_of_int e.requests;
    string_of_int e.bad;
    string_of_int e.shed;
    (match o.kind with
    | Latency ->
        if e.requests = e.shed then "-" else Printf.sprintf "%.3f" (us (quantile e))
    | Availability ->
        if e.requests = 0 then "-"
        else
          Printf.sprintf "%.3f%%"
            (100.0 *. float_of_int (e.requests - e.bad) /. float_of_int e.requests));
    Printf.sprintf "%.1f%%" (budget_used e);
    string_of_int e.next;
    Printf.sprintf "%d/%d" e.fired e.resolved;
    verdict e;
  ]

let verdict_table ~title ?(extra = []) rows =
  Jord_util.Render.table ~title
    ~header:
      ([
         "objective"; "fn"; "target"; "requests"; "bad"; "shed"; "measured_us";
         "budget_used"; "windows"; "fire/res"; "state";
       ]
      @ extra)
    ~rows ()

let transition_line tr =
  Printf.sprintf "%12.3fus %-7s %-16s window=%-4d burn fast=%.2f slow=%.2f"
    (us tr.tr_at_ps)
    (if tr.tr_firing then "FIRE" else "resolve")
    tr.tr_objective tr.tr_window tr.tr_burn_fast tr.tr_burn_slow

let alert_log transitions =
  "alerts:\n"
  ^
  match transitions with
  | [] -> "  none\n"
  | trs -> String.concat "\n" (List.map (fun tr -> "  " ^ transition_line tr) trs) ^ "\n"
