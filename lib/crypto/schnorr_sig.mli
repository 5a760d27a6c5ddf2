(** Schnorr signatures over {!Group} (Fiat–Shamir transformed
    identification). Onion services sign their descriptors; HSDirs
    verify before storing, as the Tor rendezvous specification
    requires. *)

type keypair = { priv : Group.exp; pub : Group.elt }

type signature = { challenge : Group.exp; response : Group.exp }

val keygen : Drbg.t -> keypair

val sign : Drbg.t -> priv:Group.exp -> string -> signature

val verify : pub:Group.elt -> string -> signature -> bool
