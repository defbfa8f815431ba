type t = {
  orchestrator_ipc_ns : float;
  data_channel_base_ns : float;
  data_channel_ns_per_byte : float;
  cold_start_ns : float;
  warm_start_ns : float;
}

let default =
  {
    (* >=10 ms mediated dispatch (paper 2.1, citing [46, 89, 91]). *)
    orchestrator_ipc_ns = 10.0e6;
    (* Indirect channels: queue/storage round trip, ~5 ms + bandwidth. *)
    data_channel_base_ns = 5.0e6;
    data_channel_ns_per_byte = 8.0;
    (* Cold start: image pull + sandbox boot + runtime init, ~120 ms;
       snapshot-style mitigations bring it to ~2 ms (still milliseconds). *)
    cold_start_ns = 120.0e6;
    warm_start_ns = 2.0e6;
  }

let invocation_overhead_ns t ~arg_bytes =
  t.orchestrator_ipc_ns +. t.data_channel_base_ns
  +. (t.data_channel_ns_per_byte *. float_of_int arg_bytes)
