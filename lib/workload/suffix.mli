(** Miniature public-suffix list (stand-in for publicsuffix.org) and
    registered-domain extraction, used for the SLD measurements (§4.3).

    The exported functions are index-scanning implementations with a
    bounded, domain-local memo on [registered_domain]; the [*_ref]
    variants are the original list-based versions, kept as the
    executable specification that the property tests compare against. *)

val registered_domain : string -> string option
(** The registered domain ("SLD" in the paper's terms): one label more
    than the longest known public suffix. None for bare suffixes or
    unknown TLDs.
    Memoized per domain (bounded). *)

val top_level_domain : string -> string option
(** The final label, lowercased. *)

(** {2 Reference implementations} — list-based originals; equal to the
    exported functions on every input (property-tested). For tests. *)

val registered_domain_ref : string -> string option
val top_level_domain_ref : string -> string option

val two_label_suffixes : string list
(** The miniature public-suffix list itself (for test generators). *)

val one_label_suffixes : string list
