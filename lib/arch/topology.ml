type t = {
  cfg : Config.t;
  per_socket : int;
  lat : Float.Array.t; (* one-way latency, row-major: src * cores + dst *)
}

let tile_in cfg ~per_socket core =
  let local = core mod per_socket in
  (local mod cfg.Config.mesh_cols, local / cfg.Config.mesh_cols)

let create cfg =
  let per_socket = Jord_util.Bits.ceil_div cfg.Config.cores cfg.Config.sockets in
  let n = cfg.Config.cores in
  let x = Array.init n (fun c -> fst (tile_in cfg ~per_socket c)) in
  let y = Array.init n (fun c -> snd (tile_in cfg ~per_socket c)) in
  (* Latency of each possible Manhattan distance, then one lookup per pair. *)
  let max_hops = cfg.Config.mesh_cols + (per_socket / cfg.Config.mesh_cols) in
  let hop_ns =
    Array.init (max_hops + 1) (fun h -> Config.cycles_ns cfg (h * cfg.Config.link_cycles))
  in
  let lat = Float.Array.make (n * n) 0.0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let intra = hop_ns.(abs (x.(src) - x.(dst)) + abs (y.(src) - y.(dst))) in
      Float.Array.set lat ((src * n) + dst)
        (if src / per_socket = dst / per_socket then intra
         else intra +. cfg.Config.cross_socket_ns)
    done
  done;
  { cfg; per_socket; lat }

let config t = t.cfg
let cores t = t.cfg.Config.cores
let socket_of t core = core / t.per_socket
let tile_of t core = tile_in t.cfg ~per_socket:t.per_socket core

let hops t a b =
  let xa, ya = tile_of t a and xb, yb = tile_of t b in
  abs (xa - xb) + abs (ya - yb)

let latency_table t = t.lat
let latency_ns t ~src ~dst = Float.Array.get t.lat ((src * cores t) + dst)

let slice_of_line t ~requester addr =
  let socket = socket_of t requester in
  let per = Int.min t.per_socket (cores t - (socket * t.per_socket)) in
  (socket * t.per_socket) + (abs (addr / t.cfg.Config.line) mod per)

