(** PSC's bus messages: key establishment, table submission and the
    noise → shuffle → rerandomize → decrypt cascade, all as serialized
    envelopes. Ciphertexts, decryption shares and every proof kind
    (Schnorr key proofs, disjunctive bit proofs, Terelius–Wikström
    shuffle proofs, one folded DLEQ decryption proof per CP) cross the
    wire as flat integer vectors with subgroup membership re-checked on
    decode — a proof that cannot round-trip cannot convince anyone. A
    [psc.shuffle_req] body is the vector alone. A [psc.shuffled] body
    is the output vector, a proof tag, then the proof's 5n + 9 ints
    ({!Crypto.Shuffle.proof_to_ints}), whose 3n + 5 elements are
    membership-checked in one batch. A [psc.decrypt] body is the share
    vector, a proof tag, then the proof's [a1], [a2] and [z]; the
    shares, [a1] and [a2] are membership-checked. *)

type msg =
  | Cp_key of { pub : Crypto.Elgamal.pub; proof : Crypto.Sigma.schnorr_proof }
  | Joint of { joint : Crypto.Elgamal.pub }
  | Table_request
  | Table_submit of Crypto.Elgamal.ciphertext array
  | Noise_request of { flips : int }
  | Noise_slots of (Crypto.Elgamal.ciphertext * Crypto.Bit_proof.t) array
  | Shuffle_request of Crypto.Elgamal.ciphertext array
  | Shuffled of {
      output : Crypto.Elgamal.ciphertext array;
      proof : Crypto.Shuffle.proof option;
    }
  | Rerand_request of Crypto.Elgamal.ciphertext array
  | Rerandomized of Crypto.Elgamal.ciphertext array
  | Decrypt_request of Crypto.Elgamal.ciphertext array
  | Decrypt_share of {
      shares : Crypto.Group.elt array;
      proof : Crypto.Sigma.dleq_proof option;
          (** one folded proof for the whole vector ({!Cp.decrypt_shares}) *)
    }

val kind : msg -> string
(** Envelope kind, e.g. ["psc.shuffled"]. All PSC kinds start with
    ["psc."]. *)

val encode : msg -> string
val decode : kind:string -> string -> (msg, Bus.Codec.error) result

val post : Bus.Sched.t -> epoch:int -> src:Bus.Party.t -> dst:Bus.Party.t -> msg -> unit

(** {2 Published estimate} *)

val encode_result : Protocol.result -> string
(** Canonical bytes of the published cardinality estimate — compared
    for byte-identity across bus, in-process and restarted runs. *)

val decode_result : string -> (Protocol.result, Bus.Codec.error) result
