//! The colour-name database and pixel values.
//!
//! Pixels are 24-bit `0xRRGGBB` values (a TrueColor visual). Named
//! colours come from a subset of the X11 `rgb.txt` shipped with X11R5 —
//! every name used by the paper's examples (`red`, `blue`, `tomato`, …)
//! is present — plus `#rgb`, `#rrggbb` and `#rrrrggggbbbb` hex forms.

/// A pixel value in `0xRRGGBB` layout.
pub type Pixel = u32;

/// Black, the default foreground of most widgets.
pub const BLACK: Pixel = 0x000000;
/// White, the default background of most widgets.
pub const WHITE: Pixel = 0xffffff;

/// A subset of the X11R5 `rgb.txt` database (lower-cased names).
static RGB_TXT: &[(&str, Pixel)] = &[
    ("alice blue", 0xf0f8ff),
    ("antique white", 0xfaebd7),
    ("aquamarine", 0x7fffd4),
    ("azure", 0xf0ffff),
    ("beige", 0xf5f5dc),
    ("bisque", 0xffe4c4),
    ("black", 0x000000),
    ("blanched almond", 0xffebcd),
    ("blue", 0x0000ff),
    ("blue violet", 0x8a2be2),
    ("brown", 0xa52a2a),
    ("burlywood", 0xdeb887),
    ("cadet blue", 0x5f9ea0),
    ("chartreuse", 0x7fff00),
    ("chocolate", 0xd2691e),
    ("coral", 0xff7f50),
    ("cornflower blue", 0x6495ed),
    ("cornsilk", 0xfff8dc),
    ("cyan", 0x00ffff),
    ("dark goldenrod", 0xb8860b),
    ("dark green", 0x006400),
    ("dark khaki", 0xbdb76b),
    ("dark olive green", 0x556b2f),
    ("dark orange", 0xff8c00),
    ("dark orchid", 0x9932cc),
    ("dark salmon", 0xe9967a),
    ("dark sea green", 0x8fbc8f),
    ("dark slate blue", 0x483d8b),
    ("dark slate gray", 0x2f4f4f),
    ("dark turquoise", 0x00ced1),
    ("dark violet", 0x9400d3),
    ("deep pink", 0xff1493),
    ("deep sky blue", 0x00bfff),
    ("dim gray", 0x696969),
    ("dodger blue", 0x1e90ff),
    ("firebrick", 0xb22222),
    ("floral white", 0xfffaf0),
    ("forest green", 0x228b22),
    ("gainsboro", 0xdcdcdc),
    ("ghost white", 0xf8f8ff),
    ("gold", 0xffd700),
    ("goldenrod", 0xdaa520),
    ("gray", 0xbebebe),
    ("green", 0x00ff00),
    ("green yellow", 0xadff2f),
    ("honeydew", 0xf0fff0),
    ("hot pink", 0xff69b4),
    ("indian red", 0xcd5c5c),
    ("ivory", 0xfffff0),
    ("khaki", 0xf0e68c),
    ("lavender", 0xe6e6fa),
    ("lavender blush", 0xfff0f5),
    ("lawn green", 0x7cfc00),
    ("lemon chiffon", 0xfffacd),
    ("light blue", 0xadd8e6),
    ("light coral", 0xf08080),
    ("light cyan", 0xe0ffff),
    ("light goldenrod", 0xeedd82),
    ("light gray", 0xd3d3d3),
    ("light pink", 0xffb6c1),
    ("light salmon", 0xffa07a),
    ("light sea green", 0x20b2aa),
    ("light sky blue", 0x87cefa),
    ("light slate blue", 0x8470ff),
    ("light slate gray", 0x778899),
    ("light steel blue", 0xb0c4de),
    ("light yellow", 0xffffe0),
    ("lime green", 0x32cd32),
    ("linen", 0xfaf0e6),
    ("magenta", 0xff00ff),
    ("maroon", 0xb03060),
    ("medium aquamarine", 0x66cdaa),
    ("medium blue", 0x0000cd),
    ("medium orchid", 0xba55d3),
    ("medium purple", 0x9370db),
    ("medium sea green", 0x3cb371),
    ("medium slate blue", 0x7b68ee),
    ("medium spring green", 0x00fa9a),
    ("medium turquoise", 0x48d1cc),
    ("medium violet red", 0xc71585),
    ("midnight blue", 0x191970),
    ("mint cream", 0xf5fffa),
    ("misty rose", 0xffe4e1),
    ("moccasin", 0xffe4b5),
    ("navajo white", 0xffdead),
    ("navy", 0x000080),
    ("navy blue", 0x000080),
    ("old lace", 0xfdf5e6),
    ("olive drab", 0x6b8e23),
    ("orange", 0xffa500),
    ("orange red", 0xff4500),
    ("orchid", 0xda70d6),
    ("pale goldenrod", 0xeee8aa),
    ("pale green", 0x98fb98),
    ("pale turquoise", 0xafeeee),
    ("pale violet red", 0xdb7093),
    ("papaya whip", 0xffefd5),
    ("peach puff", 0xffdab9),
    ("peru", 0xcd853f),
    ("pink", 0xffc0cb),
    ("plum", 0xdda0dd),
    ("powder blue", 0xb0e0e6),
    ("purple", 0xa020f0),
    ("red", 0xff0000),
    ("rosy brown", 0xbc8f8f),
    ("royal blue", 0x4169e1),
    ("saddle brown", 0x8b4513),
    ("salmon", 0xfa8072),
    ("sandy brown", 0xf4a460),
    ("sea green", 0x2e8b57),
    ("seashell", 0xfff5ee),
    ("sienna", 0xa0522d),
    ("sky blue", 0x87ceeb),
    ("slate blue", 0x6a5acd),
    ("slate gray", 0x708090),
    ("snow", 0xfffafa),
    ("spring green", 0x00ff7f),
    ("steel blue", 0x4682b4),
    ("tan", 0xd2b48c),
    ("thistle", 0xd8bfd8),
    ("tomato", 0xff6347),
    ("turquoise", 0x40e0d0),
    ("violet", 0xee82ee),
    ("violet red", 0xd02090),
    ("wheat", 0xf5deb3),
    ("white", 0xffffff),
    ("white smoke", 0xf5f5f5),
    ("yellow", 0xffff00),
    ("yellow green", 0x9acd32),
];

/// Looks up a colour by name or hex specification.
///
/// Accepts `rgb.txt` names, case-insensitively and with or without
/// embedded spaces (`NavyBlue` == `navy blue`), plus `#rgb`, `#rrggbb`
/// and `#rrrrggggbbbb` hex forms. Also accepts the `grayNN` scale
/// (`gray0`..`gray100`), which X generates procedurally.
///
/// # Examples
///
/// ```
/// use wafe_xproto::lookup_color;
/// assert_eq!(lookup_color("tomato"), Some(0xff6347));
/// assert_eq!(lookup_color("#ff0000"), Some(0xff0000));
/// assert_eq!(lookup_color("NavyBlue"), Some(0x000080));
/// assert_eq!(lookup_color("no such colour"), None);
/// ```
pub fn lookup_color(spec: &str) -> Option<Pixel> {
    let spec = spec.trim();
    if let Some(hex) = spec.strip_prefix('#') {
        return parse_hex(hex);
    }
    let key = normalize(spec);
    // Procedural grayNN / greyNN scale.
    for prefix in ["gray", "grey"] {
        if let Some(rest) = key.strip_prefix(prefix) {
            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()) {
                let pct: u32 = rest.parse().ok()?;
                if pct <= 100 {
                    let v = (pct * 255 + 50) / 100;
                    return Some((v << 16) | (v << 8) | v);
                }
                return None;
            }
        }
    }
    // Table names are lower-case ASCII words separated by spaces, so
    // skipping the spaces normalizes them — compared without
    // allocating, since every widget's default colours are looked up on
    // creation.
    RGB_TXT
        .iter()
        .find(|(name, _)| name.bytes().filter(|&b| b != b' ').eq(key.bytes()))
        .map(|(_, px)| *px)
}

fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| !c.is_whitespace())
        .flat_map(|c| c.to_lowercase())
        .collect()
}

fn parse_hex(hex: &str) -> Option<Pixel> {
    if !hex.chars().all(|c| c.is_ascii_hexdigit()) {
        return None;
    }
    match hex.len() {
        3 => {
            let v = u32::from_str_radix(hex, 16).ok()?;
            let (r, g, b) = ((v >> 8) & 0xf, (v >> 4) & 0xf, v & 0xf);
            Some((r * 17) << 16 | (g * 17) << 8 | (b * 17))
        }
        6 => u32::from_str_radix(hex, 16).ok(),
        12 => {
            let r = u32::from_str_radix(&hex[0..4], 16).ok()? >> 8;
            let g = u32::from_str_radix(&hex[4..8], 16).ok()? >> 8;
            let b = u32::from_str_radix(&hex[8..12], 16).ok()? >> 8;
            Some(r << 16 | g << 8 | b)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_colors_exist() {
        // Colours used in the paper's examples.
        for name in ["red", "blue", "tomato"] {
            assert!(lookup_color(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn case_and_space_insensitive() {
        assert_eq!(lookup_color("Navy Blue"), lookup_color("navyblue"));
        assert_eq!(lookup_color("SteelBlue"), Some(0x4682b4));
        assert_eq!(lookup_color("  white  "), Some(0xffffff));
    }

    #[test]
    fn hex_forms() {
        assert_eq!(lookup_color("#f00"), Some(0xff0000));
        assert_eq!(lookup_color("#00ff00"), Some(0x00ff00));
        assert_eq!(lookup_color("#0000ffff0000"), Some(0x00ff00));
        assert_eq!(lookup_color("#12345"), None);
        assert_eq!(lookup_color("#zzz"), None);
    }

    #[test]
    fn gray_scale() {
        assert_eq!(lookup_color("gray0"), Some(0x000000));
        assert_eq!(lookup_color("gray100"), Some(0xffffff));
        assert_eq!(lookup_color("grey50"), Some(0x808080));
        assert_eq!(lookup_color("gray101"), None);
    }

    #[test]
    fn unknown_is_none() {
        assert_eq!(lookup_color("definitely not a colour"), None);
        assert_eq!(lookup_color(""), None);
    }

    #[test]
    fn database_is_well_formed() {
        for (name, px) in RGB_TXT {
            assert!(!name.is_empty());
            assert!(*px <= 0xffffff, "{name} out of 24-bit range");
            // The lookup's space-skipping comparison relies on this.
            assert!(
                name.bytes()
                    .all(|b| b == b' ' || b.is_ascii_lowercase() || b.is_ascii_digit()),
                "{name} must be lower-case ASCII"
            );
        }
    }
}
