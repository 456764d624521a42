type t = {
  file : string;
  line : int;
  col : int;
  end_line : int;
  end_col : int;
}

let make ~file ~line ~col ?end_line ?end_col () =
  {
    file;
    line;
    col;
    end_line = Option.value end_line ~default:line;
    end_col = Option.value end_col ~default:col;
  }

let equal a b =
  String.equal a.file b.file
  && a.line = b.line
  && a.col = b.col
  && a.end_line = b.end_line
  && a.end_col = b.end_col

let to_string t = Printf.sprintf "%s:%d:%d" t.file t.line t.col

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_compact t = Printf.sprintf "%s:%d:%d:%d:%d" t.file t.line t.col t.end_line t.end_col
