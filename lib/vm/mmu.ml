type t = {
  i_vlb : Vlb.t;
  d_vlb : Vlb.t;
  mutable ucid : int;
  mutable p_bit : bool;
}

let create ~i_entries ~d_entries =
  {
    i_vlb = Vlb.create ~entries:i_entries;
    d_vlb = Vlb.create ~entries:d_entries;
    ucid = 0;
    p_bit = false;
  }

let i_vlb t = t.i_vlb
let d_vlb t = t.d_vlb
let ucid t = t.ucid
let set_ucid t pd = t.ucid <- pd

let p_bit t = t.p_bit

let require_privilege t ~what =
  if not t.p_bit then Fault.raise_fault (Fault.Privileged_access what)

let write_ucid t pd =
  require_privilege t ~what:0;
  t.ucid <- pd

let enter_privileged t ~at_gate =
  if not t.p_bit then begin
    if not at_gate then Fault.raise_fault (Fault.Gate_violation 0);
    t.p_bit <- true
  end

let exit_privileged t = t.p_bit <- false
