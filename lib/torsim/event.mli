(** Observation events emitted by the (simulated) patched Tor relays to
    PrivCount/PSC data collectors (paper §3.1). Events are only
    materialized at relays with a registered collector. *)

type dest = Hostname of string | Ipv4_literal | Ipv6_literal

type stream_kind = Initial | Subsequent

type fetch_result =
  | Fetch_ok of { public : bool }
      (** descriptor served; [public] = listed in the public index *)
  | Fetch_missing   (** no such descriptor in the DHT *)
  | Fetch_malformed (** unparseable request *)

type rend_outcome =
  | Rend_success of { cells : int }
  | Rend_closed   (** connection closed before rendezvous completion *)
  | Rend_expired  (** circuit timed out before completion *)

type circuit_kind = Data_circuit | Directory_circuit

type t =
  | Client_connection of { client_ip : int; country : string; asn : int }
  | Client_circuit of { client_ip : int; country : string; asn : int; kind : circuit_kind }
  | Entry_bytes of { client_ip : int; country : string; asn : int; bytes : float }
  | Directory_request of { client_ip : int }
  | Exit_stream of { kind : stream_kind; dest : dest; port : int }
  | Exit_bytes of { bytes : float }
  | Descriptor_published of { address : string; first_publish : bool }
  | Descriptor_fetch of { address : string; result : fetch_result }
  | Rendezvous_circuit of { outcome : rend_outcome }

val is_web_port : int -> bool
(** 80 or 443 (paper §4.1). *)
