type t = {
  mutable reads : int array;
  mutable n_reads : int;
  mutable writes : int array;
  mutable n_writes : int;
}

let create () =
  { reads = Array.make 8 0; n_reads = 0; writes = Array.make 8 0; n_writes = 0 }

let clear t =
  t.n_reads <- 0;
  t.n_writes <- 0

let grow a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let read t addr =
  if t.n_reads = Array.length t.reads then t.reads <- grow t.reads;
  t.reads.(t.n_reads) <- addr;
  t.n_reads <- t.n_reads + 1

let write t addr =
  if t.n_writes = Array.length t.writes then t.writes <- grow t.writes;
  t.writes.(t.n_writes) <- addr;
  t.n_writes <- t.n_writes + 1

let n_reads t = t.n_reads
let n_writes t = t.n_writes
let read_at t i = t.reads.(i)
let write_at t i = t.writes.(i)
let last_read t = if t.n_reads = 0 then -1 else t.reads.(t.n_reads - 1)
let reads t = List.init t.n_reads (fun i -> t.reads.(i))
let writes t = List.init t.n_writes (fun i -> t.writes.(i))
