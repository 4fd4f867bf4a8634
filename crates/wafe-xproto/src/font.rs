//! Synthetic fonts with XLFD-style pattern matching.
//!
//! Real font rasterisation is out of scope (and irrelevant to every
//! figure); what the toolkit needs from fonts is *metrics* — character
//! width, ascent, descent — and a way to resolve the font *names* the
//! paper uses: `fixed`, and XLFD patterns such as
//! `*b&h-lucida-medium-r*14*`. Fonts here are fixed-cell with per-face
//! weight so bold/medium resolve to distinct fonts, which E5 (compound
//! strings) depends on.

/// Identifies a loaded font within a [`FontDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FontId(pub usize);

/// A loaded font's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Font {
    /// The full XLFD name of the resolved font.
    pub name: String,
    /// Advance width of every glyph (fixed-cell).
    pub char_width: u32,
    /// Pixels above the baseline.
    pub ascent: u32,
    /// Pixels below the baseline.
    pub descent: u32,
    /// `medium` or `bold`.
    pub weight: Weight,
}

/// Font weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weight {
    /// Regular stroke.
    Medium,
    /// Heavy stroke.
    Bold,
}

impl Font {
    /// Total line height (ascent + descent).
    pub fn height(&self) -> u32 {
        self.ascent + self.descent
    }

    /// Pixel width of a string in this font.
    pub fn text_width(&self, s: &str) -> u32 {
        s.chars().count() as u32 * self.char_width
    }
}

/// The font database: a fixed set of synthetic faces resolved by name or
/// XLFD glob pattern.
#[derive(Clone)]
pub struct FontDb {
    fonts: Vec<Font>,
}

impl Default for FontDb {
    fn default() -> Self {
        Self::new()
    }
}

impl FontDb {
    /// Creates the database with the standard synthetic faces.
    pub fn new() -> Self {
        let mk = |name: &str, w, a, d, weight| Font {
            name: name.into(),
            char_width: w,
            ascent: a,
            descent: d,
            weight,
        };
        FontDb {
            fonts: vec![
                mk("fixed", 6, 11, 2, Weight::Medium),
                mk(
                    "-misc-fixed-medium-r-normal--13-120-75-75-c-60-iso8859-1",
                    6,
                    11,
                    2,
                    Weight::Medium,
                ),
                mk(
                    "-misc-fixed-bold-r-normal--13-120-75-75-c-60-iso8859-1",
                    6,
                    11,
                    2,
                    Weight::Bold,
                ),
                mk(
                    "-adobe-helvetica-medium-r-normal--12-120-75-75-p-67-iso8859-1",
                    7,
                    10,
                    3,
                    Weight::Medium,
                ),
                mk(
                    "-adobe-helvetica-bold-r-normal--12-120-75-75-p-70-iso8859-1",
                    7,
                    10,
                    3,
                    Weight::Bold,
                ),
                mk(
                    "-b&h-lucida-medium-r-normal-sans-14-100-100-100-p-80-iso8859-1",
                    8,
                    11,
                    3,
                    Weight::Medium,
                ),
                mk(
                    "-b&h-lucida-bold-r-normal-sans-14-100-100-100-p-85-iso8859-1",
                    8,
                    11,
                    3,
                    Weight::Bold,
                ),
                mk("6x13", 6, 11, 2, Weight::Medium),
                mk("9x15", 9, 12, 3, Weight::Medium),
            ],
        }
    }

    /// Resolves a font name or XLFD glob pattern to a font id.
    ///
    /// Exact names match first; otherwise the pattern is glob-matched
    /// against the database (with `*` and `?`), first hit wins — the same
    /// order-dependent behaviour as the X server's `XListFonts`.
    pub fn resolve(&self, pattern: &str) -> Option<FontId> {
        if let Some(i) = self.fonts.iter().position(|f| f.name == pattern) {
            return Some(FontId(i));
        }
        self.fonts
            .iter()
            .position(|f| glob(pattern, &f.name))
            .map(FontId)
    }

    /// Returns the metrics for a previously resolved font.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this database.
    pub fn get(&self, id: FontId) -> &Font {
        &self.fonts[id.0]
    }

    /// The id of the default font (`fixed`).
    pub fn default_font(&self) -> FontId {
        FontId(0)
    }

    /// Number of faces in the database.
    pub fn len(&self) -> usize {
        self.fonts.len()
    }

    /// True if the database has no faces (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.fonts.is_empty()
    }
}

/// Case-insensitive glob with `*` and `?` (what font patterns use).
fn glob(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let n: Vec<char> = name.to_lowercase().chars().collect();
    glob_at(&p, 0, &n, 0)
}

fn glob_at(p: &[char], mut pi: usize, n: &[char], mut ni: usize) -> bool {
    while pi < p.len() {
        match p[pi] {
            '*' => {
                while pi < p.len() && p[pi] == '*' {
                    pi += 1;
                }
                if pi == p.len() {
                    return true;
                }
                while ni <= n.len() {
                    if glob_at(p, pi, n, ni) {
                        return true;
                    }
                    ni += 1;
                }
                return false;
            }
            '?' => {
                if ni >= n.len() {
                    return false;
                }
                pi += 1;
                ni += 1;
            }
            c => {
                if ni >= n.len() || n[ni] != c {
                    return false;
                }
                pi += 1;
                ni += 1;
            }
        }
    }
    ni == n.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_resolves_exactly() {
        let db = FontDb::new();
        let id = db.resolve("fixed").unwrap();
        let f = db.get(id);
        assert_eq!(f.name, "fixed");
        assert_eq!(f.char_width, 6);
        assert_eq!(f.height(), 13);
    }

    #[test]
    fn paper_lucida_patterns_resolve() {
        // The exact patterns from the paper's Figure 3 script.
        let db = FontDb::new();
        let med = db.resolve("*b&h-lucida-medium-r*14*").unwrap();
        let bold = db.resolve("*b&h-lucida-bold-r*14*").unwrap();
        assert_ne!(med, bold);
        assert_eq!(db.get(med).weight, Weight::Medium);
        assert_eq!(db.get(bold).weight, Weight::Bold);
    }

    #[test]
    fn unknown_pattern_is_none() {
        let db = FontDb::new();
        assert!(db.resolve("*no-such-family*").is_none());
    }

    #[test]
    fn text_width_is_cells() {
        let db = FontDb::new();
        let f = db.get(db.default_font());
        assert_eq!(f.text_width("hello"), 30);
        assert_eq!(f.text_width(""), 0);
    }

    #[test]
    fn helvetica_pattern() {
        let db = FontDb::new();
        let id = db.resolve("*helvetica-bold*").unwrap();
        assert_eq!(db.get(id).weight, Weight::Bold);
    }

    #[test]
    fn case_insensitive_matching() {
        let db = FontDb::new();
        assert!(db.resolve("*Helvetica-Medium*").is_some());
    }
}
