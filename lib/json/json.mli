(** The one JSON codec: a value type, a compact writer and a strict
    parser. Every JSON byte the repo reads or writes goes through here
    (run ledgers, trace spans, torlint's JSON and SARIF output).

    Strings are byte strings: the writer escapes ['"'], ['\\'] and
    control characters below 0x20 and copies every other byte as is, so
    any OCaml string round-trips; the parser decodes [\u] escapes to
    UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [Num] of an int; written without a fraction when below 1e15 in
    magnitude. *)

val to_string : t -> string
(** Compact form, no whitespace. A number is written as the shortest
    decimal that reads back to the same float: integers below 1e15 as
    ["%.0f"], otherwise ["%.15g"] when it round-trips, else ["%.17g"].
    Non-finite numbers are written as [null]. *)

val max_depth : int
(** Arrays and objects nested deeper than this are rejected, so hostile
    input cannot recurse without bound. *)

val parse : string -> (t, string) result
(** One value (RFC 8259 grammar) with optional surrounding whitespace.
    Rejects trailing bytes, raw control characters inside strings,
    [\u] escapes without exactly four hex digits, unpaired surrogates,
    numbers that overflow to infinity, duplicate object keys and
    nesting beyond {!max_depth}. Never raises; the error names the
    byte offset. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the value under [k]; [None] for a
    missing key or a non-object. *)
