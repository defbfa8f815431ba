(* Text reports over a span forest — what [jordctl trace] prints — and the
   scaffold the fleet reports (Freport) print with: nearest-rank
   percentiles, per-function statistics and the phase table. *)

let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(Int.max 0 (Int.min (n - 1) rank))

let complete_roots r = List.filter Span.complete (Span.roots r)

let truncation_note r =
  if r.Span.truncated then
    "NOTE: the trace ring wrapped (truncated=true): oldest events were lost and\n\
     analyses cover only the retained suffix of the run.\n"
  else ""

type fn_stats = {
  fn : string;
  n : int;
  mean_ps : float;
  p50_ps : int;
  p99_ps : int;
  phase_mean_ps : float array;
  tail_phase_ps : int array;
  tail_n : int;
}

let by_fn ~fn ~e2e ~phases spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let key = fn sp in
      Hashtbl.replace tbl key (sp :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
    spans;
  Hashtbl.fold
    (fun name sps acc ->
      let n = List.length sps in
      let lat = Array.of_list (List.map e2e sps) in
      Array.sort compare lat;
      let p99 = percentile 99.0 lat in
      let phase_count = Array.length (phases (List.hd sps)) in
      let phase_mean_ps =
        Array.init phase_count (fun i ->
            List.fold_left (fun s sp -> s +. float_of_int (phases sp).(i)) 0.0 sps
            /. float_of_int n)
      in
      let tail = List.filter (fun sp -> e2e sp >= p99) sps in
      let tail_phase_ps = Array.make phase_count 0 in
      List.iter
        (fun sp ->
          Array.iteri (fun i v -> tail_phase_ps.(i) <- tail_phase_ps.(i) + v) (phases sp))
        tail;
      {
        fn = name;
        n;
        mean_ps =
          Array.fold_left (fun s v -> s +. float_of_int v) 0.0 lat /. float_of_int n;
        p50_ps = percentile 50.0 lat;
        p99_ps = p99;
        phase_mean_ps;
        tail_phase_ps;
        tail_n = List.length tail;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.fn b.fn)

(* One phase-table row per function: "fn(count)" and its phase means. *)
let fn_rows stats =
  List.map (fun s -> (Printf.sprintf "%s(%d)" s.fn s.n, s.phase_mean_ps)) stats

let by_function r =
  by_fn ~fn:(fun sp -> sp.Span.fn) ~e2e:Span.e2e_ps
    ~phases:(fun sp -> sp.Span.phases)
    (complete_roots r)

let conservation_ok r = Span.conservation_violations r = []

let conservation_line r =
  let roots = complete_roots r in
  match Span.conservation_violations r with
  | [] ->
      Printf.sprintf
        "conservation: ok (%d complete spans, %d roots; phases sum exactly to \
         end-to-end)"
        (let _, done_, _, _ = Span.stats r in
         done_)
        (List.length roots)
  | errs ->
      Printf.sprintf "conservation: VIOLATED (%d spans)\n  %s" (List.length errs)
        (String.concat "\n  " errs)

(* Columns fit the longest phase name: the row label two wider, each
   "us/share" cell as wide as its header. *)
let phase_table buf ~names ~label rows =
  let w = Array.fold_left (fun w name -> Int.max w (String.length name)) 0 names in
  Buffer.add_string buf (Printf.sprintf "%-*s %10s" (w + 2) label "e2e_us");
  Array.iter (fun name -> Buffer.add_string buf (Printf.sprintf " %*s" w name)) names;
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, phases) ->
      let total = Array.fold_left ( +. ) 0.0 phases in
      Buffer.add_string buf (Printf.sprintf "%-*s %10.3f" (w + 2) name (total /. 1e6));
      Array.iter
        (fun v ->
          let share = if total > 0.0 then 100.0 *. v /. total else 0.0 in
          Buffer.add_string buf (Printf.sprintf " %*.3f/%3.0f%%" (w - 5) (v /. 1e6) share))
        phases;
      Buffer.add_char buf '\n')
    rows

let phase_names = Array.map Span.phase_name Span.all_phases

let breakdown r =
  let buf = Buffer.create 2048 in
  let total, done_, dead, partial = Span.stats r in
  Buffer.add_string buf (truncation_note r);
  Buffer.add_string buf
    (Printf.sprintf "spans: %d (%d completed, %d shed, %d partial) from %d events\n"
       total done_ dead partial r.Span.total_events);
  let stats = by_function r in
  if stats = [] then Buffer.add_string buf "no complete root spans\n"
  else begin
    Buffer.add_string buf
      "per-phase attribution, complete roots (mean us per request / share of e2e):\n";
    phase_table buf ~names:phase_names ~label:"fn" (fn_rows stats)
  end;
  Buffer.add_string buf (conservation_line r);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let slowest ?(n = 10) r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (truncation_note r);
  let roots =
    List.sort (fun a b -> compare (Span.e2e_ps b) (Span.e2e_ps a)) (complete_roots r)
  in
  let picked = List.filteri (fun i _ -> i < n) roots in
  if picked = [] then Buffer.add_string buf "no complete root spans\n"
  else begin
    Buffer.add_string buf (Printf.sprintf "slowest %d roots:\n" (List.length picked));
    phase_table buf ~names:phase_names ~label:"req"
      (List.map
         (fun sp ->
           ( Printf.sprintf "#%d %s" sp.Span.req_id sp.Span.fn,
             Array.map float_of_int sp.Span.phases ))
         picked)
  end;
  Buffer.contents buf

let critical_path_means blames =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((sp : Span.t), (b : Critical_path.blame)) ->
      let n, acc =
        Option.value ~default:(0, Array.make Span.phase_count 0.0)
          (Hashtbl.find_opt tbl sp.Span.fn)
      in
      Array.iteri (fun i v -> acc.(i) <- acc.(i) +. float_of_int v) b.Critical_path.phases;
      Hashtbl.replace tbl sp.Span.fn (n + 1, acc))
    blames;
  Hashtbl.fold
    (fun fn (n, acc) l -> (fn, (n, Array.map (fun v -> v /. float_of_int n) acc)) :: l)
    tbl []
  |> List.sort compare

(* Aggregate critical-path blame per entry function plus the tail verdict
   ("for p99 requests, phase X is Y% of latency"). *)
let critical_path r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (truncation_note r);
  let roots = complete_roots r in
  if roots = [] then begin
    Buffer.add_string buf "no complete root spans\n";
    Buffer.contents buf
  end
  else begin
    let blames = List.map (fun sp -> (sp, Critical_path.of_root r sp)) roots in
    let rows =
      List.map
        (fun (fn, (n, means)) -> (Printf.sprintf "%s(%d)" fn n, means))
        (critical_path_means blames)
      |> List.sort compare
    in
    Buffer.add_string buf
      "critical-path blame, complete roots (mean us on the longest causal chain):\n";
    phase_table buf ~names:phase_names ~label:"fn" rows;
    (* Tail report over the p99 slice: every root as one group. *)
    let tail =
      List.hd
        (by_fn
           ~fn:(fun _ -> "*")
           ~e2e:(fun (sp, _) -> Span.e2e_ps sp)
           ~phases:(fun (_, b) -> b.Critical_path.phases)
           blames)
    in
    let acc = tail.tail_phase_ps in
    let total = Array.fold_left ( + ) 0 acc in
    if total > 0 then begin
      let worst = ref 0 in
      Array.iteri (fun i v -> if v > acc.(!worst) then worst := i) acc;
      Buffer.add_string buf
        (Printf.sprintf
           "tail: for p99 requests (>= %.3f us, n=%d), %s is %.1f%% of \
            critical-path latency\n"
           (Slo.us tail.p99_ps) tail.tail_n
           (Span.phase_name Span.all_phases.(!worst))
           (100.0 *. float_of_int acc.(!worst) /. float_of_int total))
    end;
    let longest =
      List.fold_left
        (fun best (_, (b : Critical_path.blame)) ->
          if List.length b.Critical_path.chain
             > List.length best.Critical_path.chain
          then b
          else best)
        (snd (List.hd blames))
        blames
    in
    Buffer.add_string buf
      (Printf.sprintf "longest chain (%d spans): %s\n"
         (List.length longest.Critical_path.chain)
         (String.concat " -> "
            (List.map
               (fun (id, fn) -> Printf.sprintf "%s#%d" fn id)
               longest.Critical_path.chain)));
    Buffer.add_string buf (conservation_line r);
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end
