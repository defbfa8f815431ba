(** Media Service from DeathStarBench, ported to Jord (paper §5, Table 3).

    Entry functions: UploadUniqueId (UU) — a batched fan-out over id and
    storage shards — and ReadPage (RP), the paper's extreme case with more
    than 100 nested invocations. Media averages ~12 nested invocations per
    request (vs ~3 for the other workloads), which is why Jord's relative
    overhead is highest here (~30%, Fig. 9/§6.2) and why it is the
    D-VLB-sensitivity workload of Fig. 12. *)

val app : Jord_faas.Model.app

val upload_unique_id : string
val read_page : string
