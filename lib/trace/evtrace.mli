(** Versioned binary event-trace format: record a simulated network day
    once, replay its observation events at ingestion speed forever.

    A trace is one {e segment} per netday shard. Each segment is a
    single self-describing byte string:

    - magic ["TMT"] + a version byte (like [Bus.Envelope]);
    - a header carrying provenance ({!meta}: seed, config, shard
      index/count), the shard's recorded tallies (interned counter
      names with exact values), interned string tables for countries
      and hostnames/onion addresses, the event count, the payload
      length and a SHA-256 payload checksum;
    - a payload of varint-delta event records over the interned ids.

    Header and payload are written and read with the one [Bus.Codec]
    that also carries the bus wire. Replay reads a whole segment into
    one buffer and decodes records in place into a single reused
    {!View.t}: no torsim, and no allocation per event. Two rules of
    this compiler (no flambda) set the code's shape. A local function
    that captures variables is a closure, allocated each time its
    definition runs (for a local [let rec] in a per-field reader, on
    every field), so the decode loop defines none. A float stored into
    a record that also has non-float fields is boxed on every store, so
    the byte volume lives in its own float-only record, [View.vol].

    Decoding never raises across the API boundary except through the
    documented {!Error} wrapper used inside pool workers; malformed
    input becomes the same typed {!error} as envelope decoding. *)

type error = Bus.Codec.error

val error_to_string : error -> string

exception Error of error
(** Wrapper for contexts that cannot return [result] (replay running
    inside a [Parallel] worker). Never escapes the CLI unturned. *)

(** Replay-vs-record disagreement: what was replayed does not match
    what the header promised. *)
type mismatch = {
  shard : int;  (** offending shard, [-1] for a merged/cross-segment check *)
  what : string;  (** ["events"], ["tally:<counter>"], ["shards"], ... *)
  expected : int;
  got : int;
}

exception Mismatch of mismatch

val mismatch_to_string : mismatch -> string

(** {2 Provenance} *)

type meta = {
  seed : int;
  shard : int;  (** this segment's shard index *)
  shards : int;  (** total shard count of the recording *)
  config : (string * int) list;
      (** recording configuration as ordered name/value pairs; replay
          refuses segments whose config disagrees *)
}

val meta_equal_recording : meta -> meta -> bool
(** Same recording: equal seed, shard count and config (shard index may
    differ). *)

(** {2 Recording} *)

module Writer : sig
  type t

  val create : meta -> t

  val event : t -> Torsim.Event.t -> unit
  (** Append one event record; strings (countries, hostnames, onion
      addresses) are interned on first sight. *)

  val finish : t -> tallies:(string * int) list -> string
  (** Seal the segment: header (with [tallies] as the shard's recorded
      counter values) followed by the record payload. The writer must
      not be reused afterwards (raises [Invalid_argument]). *)
end

(** {2 Segments} *)

module Segment : sig
  type t = {
    meta : meta;
    tallies : (string * int) list;  (** recorded per-shard counter values *)
    countries : string array;  (** interned country table, id order *)
    hosts : string array;  (** interned hostname/address table, id order *)
    events : int;  (** recorded event count *)
    payload : string;  (** raw record bytes, checksum-verified *)
  }

  val decode : string -> (t, error) result
  (** Parse a sealed segment; verifies magic, version, structure and
      the payload checksum. *)

  val encode : t -> string
  (** Re-seal a segment (recomputes the checksum over [payload]). Used
      by tests to construct tampered segments; [Writer.finish] is the
      normal producer. *)

  val read_file : string -> (t, error) result
  (** Read the whole file into a single buffer and {!decode} it. A
      missing/unreadable file maps to [Invalid]. *)

  val write_file : string -> string -> unit
  (** [write_file path bytes] (binary mode). *)
end

(** {2 Replay} *)

module View : sig
  (** One decoded record, exposed as a single mutable struct the
      iterator reuses for every event: replay sinks read the fields
      relevant to [kind] and must not retain the view. Filling it
      allocates nothing. *)

  type kind =
    | Connection
    | Circuit_data
    | Circuit_directory
    | Directory_request
    | Entry_bytes
    | Exit_bytes
    | Stream_initial
    | Stream_subsequent
    | Descriptor_published
    | Descriptor_fetch
    | Rendezvous

  type t = {
    mutable kind : kind;
    mutable ip : int;  (** client ip *)
    mutable country : int;  (** id into [Segment.countries] *)
    mutable asn : int;
    vol : Bus.Codec.R.f64_cell;
        (** entry/exit byte volume, [vol.value]; a float-only record,
            so storing a volume never boxes it *)
    mutable host : int;
        (** id into [Segment.hosts]; [-1] = IPv4 literal, [-2] = IPv6
            literal (stream destinations) *)
    mutable port : int;
    mutable flag : bool;  (** [first_publish] / [Fetch_ok public] *)
    mutable fetch : int;  (** 0 ok, 1 missing, 2 malformed *)
    mutable cells : int;  (** rendezvous cells; [-1] closed, [-2] expired *)
  }
end

val iter : Segment.t -> (View.t -> unit) -> (int, error) result
(** Decode every record in payload order into one reused view and hand
    it to the sink; returns the number of records decoded. Fails with
    [Invalid] if the decoded count disagrees with the header, and with
    the usual typed errors on malformed payload bytes. Decoding
    allocates nothing per record: a call allocates the view and the
    reader once, a few dozen words, and the sink's own allocations are
    the only others. *)

val iter_events : Segment.t -> (Torsim.Event.t -> unit) -> (int, error) result
(** {!iter}, materializing each view as a boxed torsim event (allocates
    one event per record; the hot path reads the view directly). *)
