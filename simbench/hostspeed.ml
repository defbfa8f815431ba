(* Host-speed calibration.

   The benchmark host is shared, and how fast it runs OCaml code that
   allocates and collects swings by ±20% over seconds while the simulator
   does identical work (same GC counts, no system time). A fixed kernel
   timed between simulation windows swings with it: the kernel below
   allocates one and a half minor heaps of pairs and stores them into a
   ring that lives in the major heap, so each call makes exactly one minor
   collection that promotes the ring. It is this benchmark's own code and
   does not call the simulator, so a change to the simulator cannot change
   what it measures.

   Host times are scaled by [reference_s] over the mean kernel time seen
   around them: they read as on a host whose kernel call takes
   [reference_s]. A rep's throughput uses every sample of the rep; a
   window uses the samples nearest to it, since the host's speed also moves
   within a rep. *)

let reference_s = 0.0005

let ring = Array.make 4096 (0, 0)

let pairs = (Gc.get ()).Gc.minor_heap_size / 2

let kernel () =
  for i = 1 to pairs do
    Array.unsafe_set ring (i land 4095) (i, i)
  done

type t = { mutable samples : float list; mutable spent : float }

let create () = { samples = []; spent = 0.0 }

(* The minor heap is emptied before the timed call, so every call does the
   same allocation and collection work whatever the simulator left in it. *)
let sample t =
  let t0 = Unix.gettimeofday () in
  Gc.minor ();
  let t1 = Unix.gettimeofday () in
  kernel ();
  let t2 = Unix.gettimeofday () in
  t.samples <- (t2 -. t1) :: t.samples;
  t.spent <- t.spent +. (t2 -. t0)

let samples t = List.length t.samples

(* Host seconds spent in [sample] so far, collection included. *)
let spent t = t.spent

(* Multiply a host time by this to read it at the reference speed; 1.0
   before any sample. Kernel times are averaged with the highest and lowest
   10% dropped: a call the host preempted must not set the level. *)
let factor t =
  match t.samples with
  | [] -> 1.0
  | l -> reference_s /. Simbench_stats.Stats.trimmed_mean ~trim:0.1 (Array.of_list l)

(* Samples on each side of a window that set its factor. *)
let radius = 2

(* [local t] maps the number of samples taken before a host time was
   measured to its factor: the mean of the samples within [radius] of the
   next one. 1.0 without samples. *)
let local t =
  let a = Array.of_list (List.rev t.samples) in
  let n = Array.length a in
  let f =
    Array.init n (fun j ->
        let lo = max 0 (j - radius) and hi = min (n - 1) (j + radius) in
        let sum = ref 0.0 in
        for i = lo to hi do
          sum := !sum +. a.(i)
        done;
        reference_s *. float_of_int (hi - lo + 1) /. !sum)
  in
  fun before -> if n = 0 then 1.0 else f.(min before (n - 1))
