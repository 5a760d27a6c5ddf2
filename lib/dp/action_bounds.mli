(** Table 1 of the paper: daily bounds on observable user actions,
    derived from models of three reference activities (web browsing
    with Tor Browser, Ricochet chat, running an onionsite) rather than
    hardcoded — reproducing Table 1 is a computation. *)

type action =
  | Connect_to_domain
  | Exit_data_bytes
  | New_ip_day1
  | New_ip_later_days
  | Tcp_connection
  | Entry_circuit
  | Entry_data_bytes
  | Descriptor_upload
  | New_onion_address
  | Descriptor_fetch
  | Rendezvous_connection
  | Rendezvous_data_bytes

val all_actions : action list
val action_name : action -> string

type activity = Web | Chat | Onionsite | Any

val activity_name : activity -> string

val lookup : activity -> action -> float
(** The activity's daily amount for one action (0 if it performs none). *)

val bound_value : action -> float
val defining_activity : action -> activity

val paper_table : (action * float * activity) list
(** The published Table 1, for comparison in tests and the harness. *)
