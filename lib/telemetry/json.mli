(** JSON scalar writers shared by every byte-stable emitter ({!Export},
    {!Scrape}'s sample log, the scenario monitor, provenance summaries
    and the DSL report): one float format and one string escaper, so
    identical values always render to identical bytes. *)

val float : float -> string
(** [%.9g]; non-finite values become [null]. *)

val add_float : Buffer.t -> float -> unit
(** [Buffer.add_string b (float v)]. *)

val add_string : Buffer.t -> string -> unit
(** The string in double quotes. A quote, a backslash, newline, carriage
    return and tab take their two-character escapes; other control bytes
    become [\u00XX]. Bytes from 0x80 up pass through unchanged. *)
