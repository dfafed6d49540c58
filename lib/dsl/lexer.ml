type token =
  | Ident of string
  | Int of int
  | Float of float
  | Addr of Pi_pkt.Ipv4_addr.t
  | Cidr of Pi_pkt.Ipv4_addr.Prefix.t
  | Lbrace
  | Rbrace
  | Dotdot
  | Cmp_le
  | Cmp_ge
  | Cmp_lt
  | Cmp_gt
  | Cmp_eq
  | Eof

type t = { tok : token; at : Loc.t }

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "'%s'" s
  | Int n -> Format.fprintf ppf "integer %d" n
  | Float f -> Format.fprintf ppf "number %g" f
  | Addr a -> Format.fprintf ppf "address %s" (Pi_pkt.Ipv4_addr.to_string a)
  | Cidr p ->
    Format.fprintf ppf "prefix %s" (Pi_pkt.Ipv4_addr.Prefix.to_string p)
  | Lbrace -> Format.pp_print_string ppf "'{'"
  | Rbrace -> Format.pp_print_string ppf "'}'"
  | Dotdot -> Format.pp_print_string ppf "'..'"
  | Cmp_le -> Format.pp_print_string ppf "'<='"
  | Cmp_ge -> Format.pp_print_string ppf "'>='"
  | Cmp_lt -> Format.pp_print_string ppf "'<'"
  | Cmp_gt -> Format.pp_print_string ppf "'>'"
  | Cmp_eq -> Format.pp_print_string ppf "'=='"
  | Eof -> Format.pp_print_string ppf "end of file"

exception Fail of Diag.t

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident c = is_ident_start c || is_digit c

let tokenize ~file src =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let loc i = Loc.v ~file ~line:!line ~col:(i - !bol + 1) in
  let fail i fmt = Printf.ksprintf (fun msg -> raise (Fail (Diag.v (loc i) msg))) fmt in
  let toks = ref [] in
  let push i tok = toks := { tok; at = loc i } :: !toks in
  let i = ref 0 in
  let peek_at k = if k < n then src.[k] else '\000' in
  (* A run of digits starting at !i; advances past it. *)
  let digits () =
    let s = !i in
    while !i < n && is_digit src.[!i] do incr i done;
    String.sub src s (!i - s)
  in
  let lex_number start =
    let first = digits () in
    if first = "0" && (peek_at !i = 'x' || peek_at !i = 'X') then begin
      incr i;
      let h = !i in
      while !i < n && is_hex src.[!i] do incr i done;
      if !i = h then fail start "malformed hex literal";
      let s = String.sub src start (!i - start) in
      match int_of_string_opt s with
      | Some v -> push start (Int v)
      | None -> fail start "integer literal %s out of range" s
    end
    else begin
      (* Consume '.' groups while a digit follows the dot — this stops
         cleanly before '..' (port ranges). *)
      let parts = ref [ first ] in
      while peek_at !i = '.' && is_digit (peek_at (!i + 1)) do
        incr i;
        parts := digits () :: !parts
      done;
      let parts = List.rev !parts in
      let exponent () =
        (* optional [eE][+-]?digits — floats only *)
        if peek_at !i = 'e' || peek_at !i = 'E' then begin
          let e = !i in
          incr i;
          if peek_at !i = '+' || peek_at !i = '-' then incr i;
          if not (is_digit (peek_at !i)) then
            fail e "malformed exponent in number";
          ignore (digits ())
        end
      in
      (match List.length parts with
       | 1 ->
         exponent ();
         let s = String.sub src start (!i - start) in
         if String.contains s 'e' || String.contains s 'E' then
           push start (Float (float_of_string s))
         else begin
           match int_of_string_opt s with
           | Some v -> push start (Int v)
           | None -> fail start "integer literal %s out of range" s
         end
       | 2 ->
         exponent ();
         let s = String.sub src start (!i - start) in
         push start (Float (float_of_string s))
       | 4 ->
         let octet s =
           match int_of_string_opt s with
           | Some v when v <= 255 -> v
           | Some _ | None ->
             fail start "octet %s out of range in IP address" s
         in
         let addr =
           match List.map octet parts with
           | [ a; b; c; d ] -> Pi_pkt.Ipv4_addr.of_octets a b c d
           | _ -> assert false
         in
         if peek_at !i = '/' && is_digit (peek_at (!i + 1)) then begin
           incr i;
           let l = !i in
           let len_s = digits () in
           let len =
             match int_of_string_opt len_s with
             | Some len when len <= 32 -> len
             | Some _ | None ->
               raise
                 (Fail (Diag.f (loc l) "prefix length /%s out of range (0..32)" len_s))
           in
           let p = Pi_pkt.Ipv4_addr.Prefix.make addr len in
           if not (Pi_pkt.Ipv4_addr.equal p.Pi_pkt.Ipv4_addr.Prefix.base addr)
           then
             fail start "host bits set in prefix %s/%d (aligned base: %s)"
               (Pi_pkt.Ipv4_addr.to_string addr) len
               (Pi_pkt.Ipv4_addr.to_string p.Pi_pkt.Ipv4_addr.Prefix.base);
           push start (Cidr p)
         end
         else push start (Addr addr)
       | _ ->
         fail start "malformed number or IP address %S"
           (String.sub src start (!i - start)));
      if is_ident_start (peek_at !i) then
        fail start "malformed number (letter follows %S)"
          (String.sub src start (!i - start))
    end
  in
  try
    while !i < n do
      let c = src.[!i] in
      (match c with
       | ' ' | '\t' | '\r' -> incr i
       | '\n' ->
         incr i;
         incr line;
         bol := !i
       | '#' -> while !i < n && src.[!i] <> '\n' do incr i done
       | '{' -> push !i Lbrace; incr i
       | '}' -> push !i Rbrace; incr i
       | '<' ->
         if peek_at (!i + 1) = '=' then (push !i Cmp_le; i := !i + 2)
         else (push !i Cmp_lt; incr i)
       | '>' ->
         if peek_at (!i + 1) = '=' then (push !i Cmp_ge; i := !i + 2)
         else (push !i Cmp_gt; incr i)
       | '=' ->
         if peek_at (!i + 1) = '=' then (push !i Cmp_eq; i := !i + 2)
         else fail !i "expected '==' (single '=' is not an operator)"
       | '.' ->
         if peek_at (!i + 1) = '.' then (push !i Dotdot; i := !i + 2)
         else fail !i "unexpected '.'"
       | c when is_ident_start c ->
         let s = !i in
         while !i < n && is_ident src.[!i] do incr i done;
         push s (Ident (String.sub src s (!i - s)))
       | c when is_digit c -> lex_number !i
       | c -> fail !i "unexpected character '%c'" c)
    done;
    push n Eof;
    Ok (Array.of_list (List.rev !toks))
  with Fail d -> Error d
