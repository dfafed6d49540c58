(** Canonical formatter for [.pis] programs.

    [to_string] emits text the parser maps back onto the same tree:
    [Parser.parse ~file (to_string p)] succeeds for every well-formed
    AST with [Ast.equal_program] holding — the property the qcheck
    round-trip suite pins. Blocks print in AST order; fields print in a
    fixed canonical order; floats print with just enough digits to
    recover the exact value. *)

val float_str : float -> string
(** Shortest decimal form that reads back as the same double (["40"],
    ["0.05"], ["1e+11"]); finite values only. *)

val to_string : Ast.program -> string
