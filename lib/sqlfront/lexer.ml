type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | KW of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | SEMI
  | EQ | NE | LT | LE | GT | GE
  | PLUS | MINUS | STAR
  | EOF

exception Error of string * int

(* The keyword set, upper case; the match compiles to a string
   decision tree, not a scan of a list. *)
let is_keyword = function
  | "SELECT" | "FROM" | "WHERE" | "JOIN" | "INNER" | "LEFT" | "RIGHT"
  | "FULL" | "OUTER" | "SEMI" | "ANTI" | "ON" | "AND" | "OR" | "NOT" | "AS"
  | "EXISTS" | "COUNT" | "SUM" | "MIN" | "MAX" | "AVG" | "GROUP" | "BY"
  | "TRUE" | "FALSE" ->
      true
  | _ -> false

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      emit (INT (int_of_string (String.sub src start (!i - start))))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      let upper = String.uppercase_ascii word in
      if is_keyword upper then emit (KW upper) else emit (IDENT word)
    end
    else if c = '\'' then begin
      let start = !i + 1 in
      incr i;
      while !i < n && src.[!i] <> '\'' do incr i done;
      if !i >= n then raise (Error ("unterminated string literal", start));
      emit (STRING (String.sub src start (!i - start)));
      incr i
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub src !i 2) else None
      in
      match two with
      | Some "<=" -> emit LE; i := !i + 2
      | Some ">=" -> emit GE; i := !i + 2
      | Some "<>" -> emit NE; i := !i + 2
      | Some "!=" -> emit NE; i := !i + 2
      | _ -> (
          (match c with
          | '(' -> emit LPAREN
          | ')' -> emit RPAREN
          | ',' -> emit COMMA
          | '.' -> emit DOT
          | ';' -> emit SEMI
          | '=' -> emit EQ
          | '<' -> emit LT
          | '>' -> emit GT
          | '+' -> emit PLUS
          | '-' -> emit MINUS
          | '*' -> emit STAR
          | c ->
              raise
                (Error (Printf.sprintf "unexpected character %C" c, !i)));
          incr i)
    end
  done;
  List.rev (EOF :: !toks)

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "ident(%s)" s
  | INT i -> Format.fprintf ppf "int(%d)" i
  | STRING s -> Format.fprintf ppf "string(%S)" s
  | KW s -> Format.fprintf ppf "%s" s
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | COMMA -> Format.pp_print_string ppf ","
  | DOT -> Format.pp_print_string ppf "."
  | SEMI -> Format.pp_print_string ppf ";"
  | EQ -> Format.pp_print_string ppf "="
  | NE -> Format.pp_print_string ppf "<>"
  | LT -> Format.pp_print_string ppf "<"
  | LE -> Format.pp_print_string ppf "<="
  | GT -> Format.pp_print_string ppf ">"
  | GE -> Format.pp_print_string ppf ">="
  | PLUS -> Format.pp_print_string ppf "+"
  | MINUS -> Format.pp_print_string ppf "-"
  | STAR -> Format.pp_print_string ppf "*"
  | EOF -> Format.pp_print_string ppf "<eof>"
