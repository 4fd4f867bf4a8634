//! String commands: `string`, `format`, `scan`.

use crate::error::{wrong_num_args, TclError, TclResult};
use crate::glob::glob_match;
use crate::interp::Interp;
use crate::value::Value;

pub(super) fn register(interp: &mut Interp) {
    interp.register("string", cmd_string);
    interp.register("format", cmd_format);
    interp.register("scan", cmd_scan);
}

fn cmd_string(_: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() < 3 {
        return Err(wrong_num_args("string option arg ?arg ...?"));
    }
    let s = &argv[2];
    match argv[1].as_str() {
        "length" => Ok(Value::from_int(s.chars().count() as i64)),
        "tolower" => Ok(s.to_lowercase().into()),
        "toupper" => Ok(s.to_uppercase().into()),
        "trim" | "trimleft" | "trimright" => {
            let set: Vec<char> = argv
                .get(3)
                .map(|t| t.chars().collect())
                .unwrap_or_else(|| vec![' ', '\t', '\n', '\r']);
            let pred = |c: char| set.contains(&c);
            Ok(match argv[1].as_str() {
                "trim" => s.trim_matches(pred).to_string(),
                "trimleft" => s.trim_start_matches(pred).to_string(),
                _ => s.trim_end_matches(pred).to_string(),
            }
            .into())
        }
        "index" => {
            let idx: i64 = argv
                .get(3)
                .ok_or_else(|| wrong_num_args("string index string charIndex"))?
                .parse()
                .map_err(|_| TclError::Error(format!("bad index \"{}\"", argv[3])))?;
            if idx < 0 {
                return Ok(Value::empty());
            }
            Ok(s.chars()
                .nth(idx as usize)
                .map(|c| c.to_string())
                .unwrap_or_default()
                .into())
        }
        "range" => {
            if argv.len() != 5 {
                return Err(wrong_num_args("string range string first last"));
            }
            let chars: Vec<char> = s.chars().collect();
            let first = super::parse_index(&argv[3], chars.len())?.max(0) as usize;
            let last = super::parse_index(&argv[4], chars.len())?;
            if last < 0 || first as i64 > last || first >= chars.len() {
                return Ok(Value::empty());
            }
            let last = (last as usize).min(chars.len() - 1);
            Ok(chars[first..=last].iter().collect::<String>().into())
        }
        "compare" => {
            if argv.len() != 4 {
                return Err(wrong_num_args("string compare string1 string2"));
            }
            Ok(match s.as_str().cmp(argv[3].as_str()) {
                std::cmp::Ordering::Less => "-1",
                std::cmp::Ordering::Equal => "0",
                std::cmp::Ordering::Greater => "1",
            }
            .into())
        }
        "match" => {
            if argv.len() != 4 {
                return Err(wrong_num_args("string match pattern string"));
            }
            Ok(if glob_match(s, &argv[3]) { "1" } else { "0" }.into())
        }
        "first" => {
            if argv.len() != 4 {
                return Err(wrong_num_args("string first string1 string2"));
            }
            Ok(Value::from_int(
                char_index_of(&argv[3], s).map(|n| n as i64).unwrap_or(-1),
            ))
        }
        "last" => {
            if argv.len() != 4 {
                return Err(wrong_num_args("string last string1 string2"));
            }
            Ok(Value::from_int(
                char_rindex_of(&argv[3], s).map(|n| n as i64).unwrap_or(-1),
            ))
        }
        other => Err(TclError::Error(format!(
            "bad option \"{other}\": must be compare, first, index, last, length, match, range, tolower, toupper, trim, trimleft, or trimright"
        ))),
    }
}

/// Char (not byte) index of the first occurrence of `needle` in `hay`.
fn char_index_of(hay: &str, needle: &str) -> Option<usize> {
    hay.find(needle).map(|byte| hay[..byte].chars().count())
}

fn char_rindex_of(hay: &str, needle: &str) -> Option<usize> {
    hay.rfind(needle).map(|byte| hay[..byte].chars().count())
}

fn cmd_format(_: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() < 2 {
        return Err(wrong_num_args("format formatString ?arg arg ...?"));
    }
    format_impl(&argv[1], &argv[2..]).map(Value::from)
}

/// A C-`printf` subset: flags `-+ 0#`, width, precision; conversions
/// `s d i u o x X c f e E g G %`.
pub fn format_impl<S: AsRef<str>>(fmt: &str, args: &[S]) -> TclResult<String> {
    let chars: Vec<char> = fmt.chars().collect();
    let mut out = String::new();
    let mut ai = 0usize;
    let mut i = 0usize;
    let next_arg = |ai: &mut usize| -> TclResult<String> {
        let v = args
            .get(*ai)
            .map(|s| s.as_ref().to_string())
            .ok_or_else(|| TclError::error("not enough arguments for all format specifiers"))?;
        *ai += 1;
        Ok(v)
    };
    while i < chars.len() {
        if chars[i] != '%' {
            out.push(chars[i]);
            i += 1;
            continue;
        }
        i += 1;
        if i >= chars.len() {
            return Err(TclError::error(
                "format string ended in middle of field specifier",
            ));
        }
        if chars[i] == '%' {
            out.push('%');
            i += 1;
            continue;
        }
        // Flags.
        let (mut left, mut zero, mut plus, mut space, mut alt) =
            (false, false, false, false, false);
        while i < chars.len() {
            match chars[i] {
                '-' => left = true,
                '0' => zero = true,
                '+' => plus = true,
                ' ' => space = true,
                '#' => alt = true,
                _ => break,
            }
            i += 1;
        }
        // Width.
        let start = i;
        let width = field_number(&chars, &mut i, "field width")?;
        let have_width = i > start;
        // Precision.
        let mut prec: Option<usize> = None;
        if i < chars.len() && chars[i] == '.' {
            i += 1;
            prec = Some(field_number(&chars, &mut i, "precision")?);
        }
        // Length modifiers `l`/`h` are accepted and ignored.
        while i < chars.len() && matches!(chars[i], 'l' | 'h') {
            i += 1;
        }
        if i >= chars.len() {
            return Err(TclError::error(
                "format string ended in middle of field specifier",
            ));
        }
        let conv = chars[i];
        i += 1;
        let parse_int = |s: &str| -> TclResult<i64> {
            let t = s.trim();
            if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                return i64::from_str_radix(h, 16)
                    .map_err(|_| TclError::Error(format!("expected integer but got \"{s}\"")));
            }
            t.parse::<i64>().or_else(|_| {
                t.parse::<f64>()
                    .map(|f| f as i64)
                    .map_err(|_| TclError::Error(format!("expected integer but got \"{s}\"")))
            })
        };
        let piece: String = match conv {
            's' => {
                let mut v = next_arg(&mut ai)?;
                if let Some(p) = prec {
                    v = v.chars().take(p).collect();
                }
                v
            }
            'd' | 'i' => {
                let v = parse_int(&next_arg(&mut ai)?)?;
                let body = v.abs().to_string();
                let sign = if v < 0 {
                    "-"
                } else if plus {
                    "+"
                } else if space {
                    " "
                } else {
                    ""
                };
                format!("{sign}{body}")
            }
            'u' => (parse_int(&next_arg(&mut ai)?)? as u64).to_string(),
            'o' => {
                let v = parse_int(&next_arg(&mut ai)?)? as u64;
                if alt {
                    format!("0{v:o}")
                } else {
                    format!("{v:o}")
                }
            }
            'x' => {
                let v = parse_int(&next_arg(&mut ai)?)? as u64;
                if alt {
                    format!("0x{v:x}")
                } else {
                    format!("{v:x}")
                }
            }
            'X' => {
                let v = parse_int(&next_arg(&mut ai)?)? as u64;
                if alt {
                    format!("0X{v:X}")
                } else {
                    format!("{v:X}")
                }
            }
            'c' => {
                let v = parse_int(&next_arg(&mut ai)?)?;
                char::from_u32(v as u32).unwrap_or('\u{fffd}').to_string()
            }
            'f' => {
                let v: f64 = parse_float(&next_arg(&mut ai)?)?;
                let p = prec.unwrap_or(6);
                let body = format!("{:.*}", p, v.abs());
                let sign = if v.is_sign_negative() {
                    "-"
                } else if plus {
                    "+"
                } else {
                    ""
                };
                format!("{sign}{body}")
            }
            'e' | 'E' => {
                let v: f64 = parse_float(&next_arg(&mut ai)?)?;
                let p = prec.unwrap_or(6);
                let s = format!("{v:.*e}", p);
                let s = fix_exponent(&s);
                if conv == 'E' {
                    s.to_uppercase()
                } else {
                    s
                }
            }
            'g' | 'G' => {
                let v: f64 = parse_float(&next_arg(&mut ai)?)?;
                let s = format!("{v}");
                if conv == 'G' {
                    s.to_uppercase()
                } else {
                    s
                }
            }
            other => return Err(TclError::Error(format!("bad field specifier \"{other}\""))),
        };
        // Apply width.
        let padded = if have_width && piece.chars().count() < width {
            let pad = width - piece.chars().count();
            if left {
                format!("{piece}{}", " ".repeat(pad))
            } else if zero && !matches!(conv, 's' | 'c') {
                if let Some(stripped) = piece.strip_prefix('-') {
                    format!("-{}{stripped}", "0".repeat(pad))
                } else {
                    format!("{}{piece}", "0".repeat(pad))
                }
            } else {
                format!("{}{piece}", " ".repeat(pad))
            }
        } else {
            piece
        };
        out.push_str(&padded);
    }
    Ok(out)
}

/// The largest field width or precision `format` accepts. A field this
/// wide is already a 64 KiB string, and Rust's formatter takes no larger
/// precision.
const MAX_FORMAT_FIELD: usize = u16::MAX as usize;

/// Reads the decimal digits at `chars[*i..]` as a field width or
/// precision (`what`), at most [`MAX_FORMAT_FIELD`].
fn field_number(chars: &[char], i: &mut usize, what: &str) -> TclResult<usize> {
    let mut n = 0usize;
    while let Some(d) = chars.get(*i).and_then(|c| c.to_digit(10)) {
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add(d as usize))
            .filter(|&n| n <= MAX_FORMAT_FIELD)
            .ok_or_else(|| TclError::Error(format!("format {what} exceeds {MAX_FORMAT_FIELD}")))?;
        *i += 1;
    }
    Ok(n)
}

fn parse_float(s: &str) -> TclResult<f64> {
    s.trim()
        .parse::<f64>()
        .map_err(|_| TclError::Error(format!("expected floating-point number but got \"{s}\"")))
}

/// Rust renders exponents as `e0`; C as `e+00`. Convert.
fn fix_exponent(s: &str) -> String {
    if let Some(epos) = s.find(['e', 'E']) {
        let (mantissa, exp) = s.split_at(epos);
        let exp = &exp[1..];
        let (sign, digits) = match exp.strip_prefix('-') {
            Some(d) => ("-", d),
            None => ("+", exp.strip_prefix('+').unwrap_or(exp)),
        };
        let digits = if digits.len() < 2 {
            format!("0{digits}")
        } else {
            digits.to_string()
        };
        format!("{mantissa}e{sign}{digits}")
    } else {
        s.to_string()
    }
}

fn cmd_scan(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() < 3 {
        return Err(wrong_num_args("scan string format ?varName varName ...?"));
    }
    let input: Vec<char> = argv[1].chars().collect();
    let fmt: Vec<char> = argv[2].chars().collect();
    let mut si = 0usize;
    let mut fi = 0usize;
    let mut vi = 3usize;
    let mut count = 0usize;
    while fi < fmt.len() {
        let fc = fmt[fi];
        if fc.is_whitespace() {
            while si < input.len() && input[si].is_whitespace() {
                si += 1;
            }
            fi += 1;
            continue;
        }
        if fc != '%' {
            if si < input.len() && input[si] == fc {
                si += 1;
                fi += 1;
                continue;
            }
            break;
        }
        fi += 1;
        if fi >= fmt.len() {
            break;
        }
        // Optional maximum field width.
        let mut maxw = usize::MAX;
        let mut w = 0usize;
        let mut have_w = false;
        while fi < fmt.len() && fmt[fi].is_ascii_digit() {
            w = w * 10 + fmt[fi].to_digit(10).unwrap() as usize;
            have_w = true;
            fi += 1;
        }
        if have_w {
            maxw = w;
        }
        let conv = fmt[fi];
        fi += 1;
        while si < input.len() && input[si].is_whitespace() && conv != 'c' {
            si += 1;
        }
        let assign = |i: &mut Interp, vi: &mut usize, val: &str| -> TclResult<()> {
            if *vi >= argv.len() {
                return Err(TclError::error(
                    "different numbers of variable names and field specifiers",
                ));
            }
            i.set_var(&argv[*vi], val)?;
            *vi += 1;
            Ok(())
        };
        match conv {
            'd' => {
                let start = si;
                if si < input.len() && (input[si] == '-' || input[si] == '+') {
                    si += 1;
                }
                while si < input.len() && input[si].is_ascii_digit() && si - start < maxw {
                    si += 1;
                }
                if si == start {
                    break;
                }
                let text: String = input[start..si].iter().collect();
                assign(i, &mut vi, &text)?;
                count += 1;
            }
            'f' | 'e' | 'g' => {
                let start = si;
                if si < input.len() && (input[si] == '-' || input[si] == '+') {
                    si += 1;
                }
                while si < input.len()
                    && (input[si].is_ascii_digit()
                        || matches!(input[si], '.' | 'e' | 'E' | '-' | '+'))
                    && si - start < maxw
                {
                    si += 1;
                }
                if si == start {
                    break;
                }
                let text: String = input[start..si].iter().collect();
                let v: f64 = match text.parse() {
                    Ok(v) => v,
                    Err(_) => break,
                };
                assign(i, &mut vi, &crate::expr::format_double(v))?;
                count += 1;
            }
            's' => {
                let start = si;
                while si < input.len() && !input[si].is_whitespace() && si - start < maxw {
                    si += 1;
                }
                if si == start {
                    break;
                }
                let text: String = input[start..si].iter().collect();
                assign(i, &mut vi, &text)?;
                count += 1;
            }
            'c' => {
                if si >= input.len() {
                    break;
                }
                let text = input[si].to_string();
                si += 1;
                assign(i, &mut vi, &text)?;
                count += 1;
            }
            other => {
                return Err(TclError::Error(format!(
                    "bad scan conversion character \"{other}\""
                )))
            }
        }
    }
    Ok(Value::from_int(count as i64))
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    fn new() -> Interp {
        Interp::new()
    }

    #[test]
    fn string_length_case_trim() {
        let mut i = new();
        assert_eq!(i.eval("string length hello").unwrap(), "5");
        assert_eq!(i.eval("string toupper abc").unwrap(), "ABC");
        assert_eq!(i.eval("string tolower ABC").unwrap(), "abc");
        assert_eq!(i.eval("string trim {  hi  }").unwrap(), "hi");
        assert_eq!(i.eval("string trimleft xxhixx x").unwrap(), "hixx");
        assert_eq!(i.eval("string trimright xxhixx x").unwrap(), "xxhi");
    }

    #[test]
    fn string_index_range() {
        let mut i = new();
        assert_eq!(i.eval("string index abcde 2").unwrap(), "c");
        assert_eq!(i.eval("string index abcde 99").unwrap(), "");
        assert_eq!(i.eval("string range abcde 1 3").unwrap(), "bcd");
        assert_eq!(i.eval("string range abcde 2 end").unwrap(), "cde");
    }

    #[test]
    fn string_compare_match_first_last() {
        let mut i = new();
        assert_eq!(i.eval("string compare a b").unwrap(), "-1");
        assert_eq!(i.eval("string compare b b").unwrap(), "0");
        assert_eq!(i.eval("string compare c b").unwrap(), "1");
        assert_eq!(i.eval("string match *.c main.c").unwrap(), "1");
        assert_eq!(i.eval("string match *.c main.h").unwrap(), "0");
        assert_eq!(i.eval("string first bc abcbc").unwrap(), "1");
        assert_eq!(i.eval("string last bc abcbc").unwrap(), "3");
        assert_eq!(i.eval("string first zz abc").unwrap(), "-1");
    }

    #[test]
    fn format_basics() {
        let mut i = new();
        assert_eq!(i.eval("format %d 42").unwrap(), "42");
        assert_eq!(i.eval("format %5d 42").unwrap(), "   42");
        assert_eq!(i.eval("format %-5d| 42").unwrap(), "42   |");
        assert_eq!(i.eval("format %05d 42").unwrap(), "00042");
        assert_eq!(i.eval("format %05d -42").unwrap(), "-0042");
        assert_eq!(i.eval("format %x 255").unwrap(), "ff");
        assert_eq!(i.eval("format %#x 255").unwrap(), "0xff");
        assert_eq!(i.eval("format %o 8").unwrap(), "10");
        assert_eq!(i.eval("format %c 65").unwrap(), "A");
        assert_eq!(i.eval("format {%d%%} 7").unwrap(), "7%");
    }

    #[test]
    fn format_strings_and_floats() {
        let mut i = new();
        assert_eq!(i.eval("format %s hello").unwrap(), "hello");
        assert_eq!(i.eval("format %.3s hello").unwrap(), "hel");
        assert_eq!(i.eval("format %8.2f 3.14159").unwrap(), "    3.14");
        assert_eq!(i.eval("format %+d 5").unwrap(), "+5");
        assert_eq!(i.eval("format {%s is %d} age 30").unwrap(), "age is 30");
    }

    #[test]
    fn format_exponent() {
        let mut i = new();
        assert_eq!(i.eval("format %.2e 12345.0").unwrap(), "1.23e+04");
    }

    #[test]
    fn format_errors() {
        let mut i = new();
        assert!(i.eval("format %d").is_err());
        assert!(i.eval("format %d notanumber").is_err());
        assert!(i.eval("format %q 1").is_err());
    }

    #[test]
    fn scan_basics() {
        let mut i = new();
        assert_eq!(i.eval("scan {10 20 hello} {%d %d %s} a b c").unwrap(), "3");
        assert_eq!(i.get_var("a").unwrap(), "10");
        assert_eq!(i.get_var("b").unwrap(), "20");
        assert_eq!(i.get_var("c").unwrap(), "hello");
    }

    #[test]
    fn scan_partial_match() {
        let mut i = new();
        assert_eq!(i.eval("scan {12 abc} {%d %d} x y").unwrap(), "1");
        assert_eq!(i.get_var("x").unwrap(), "12");
    }

    #[test]
    fn scan_float_and_char() {
        let mut i = new();
        assert_eq!(i.eval("scan {3.5 x} {%f %c} f c").unwrap(), "2");
        assert_eq!(i.get_var("f").unwrap(), "3.5");
        assert_eq!(i.get_var("c").unwrap(), "x");
    }
}
