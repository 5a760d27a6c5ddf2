(** The synthetic Alexa-style top-sites list.

    The paper matches observed hostnames against the Alexa top 1 million
    sites list, its category lists, sibling sets of the top-10 sites,
    TLD subsets and second-level domains. We reproduce that structure,
    less the category lists (no experiment here measures categories),
    with a deterministic synthetic list: every rank maps to a stable
    domain name, special ranks carry the real-world anchors the paper
    discusses (google.com at 1, amazon.com at 10, duckduckgo.com at 342,
    torproject.org at 10244), and each top-10 site has a sibling family
    of realistic size (google: 212 members, reddit and qq: 3). *)

val list_size : int
(** 1_000_000 — same size as the Alexa list. *)

val name_of_rank : int -> string
(** Stable name for ranks 1..list_size. *)

val rank_of_name : string -> int option
(** Inverse of {!name_of_rank} (handles sibling and special names). *)

val in_alexa : string -> bool

val tail_name : int -> string
(** Name of the k-th non-Alexa (long-tail) site. *)

val onionoo : string
(** "onionoo.torproject.org" — the dominant observed domain (§4.3). *)

val torproject : string
val torproject_rank : int
val duckduckgo_rank : int

val top10_basenames : string list
(** Basenames of the top-10 sites, in rank order. *)

val sibling_family : string -> string list
(** All Alexa members whose name contains the given basename
    (the paper's "siblings" construction). *)

val family_of_name : string -> string option
(** Which top-10/duckduckgo/torproject family a hostname belongs to. *)

val measured_tlds : string list
(** The 14 TLDs the paper measures in Fig. 3 (.com .org .net + 11
    country TLDs). *)
