//! Deterministic token counting.
//!
//! Real systems use BPE tokenizers; for cost and latency accounting the
//! reproduction only needs a stable, monotone approximation. We use the
//! common heuristic that one token covers ~4 characters of English text,
//! refined to count word and punctuation boundaries so that token counts
//! respond to structure the way BPE counts do.

/// Count tokens in `text`.
///
/// The rule: every maximal alphanumeric run contributes
/// `ceil(len / 4)` tokens (long words split into multiple subword tokens),
/// every non-space punctuation character contributes one token, and
/// whitespace is free. The empty string is zero tokens.
///
/// Properties relied on elsewhere (and checked by property tests):
/// * `count_tokens("") == 0`
/// * monotone under concatenation: `count(a + b) >= max(count(a), count(b))`
/// * subadditive-ish: `count(a + b) <= count(a) + count(b) + 1`
///
/// Pure-ASCII text (the common case) is counted byte by byte; other text
/// is decoded into `char`s. Both paths apply the same rule.
pub fn count_tokens(text: &str) -> usize {
    if text.is_ascii() {
        count_ascii_tokens(text.as_bytes())
    } else {
        count_char_tokens(text)
    }
}

/// [`count_tokens`] over ASCII bytes, where `char::is_alphanumeric` is
/// `is_ascii_alphanumeric` and `char::is_whitespace` is exactly tab, line
/// feed, vertical tab, form feed, carriage return and space
/// (`u8::is_ascii_whitespace` leaves out the vertical tab).
fn count_ascii_tokens(bytes: &[u8]) -> usize {
    let mut tokens = 0usize;
    let mut run_len = 0usize;
    for &b in bytes {
        if b.is_ascii_alphanumeric() {
            run_len += 1;
        } else {
            if run_len > 0 {
                tokens += run_len.div_ceil(4);
                run_len = 0;
            }
            if !matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' ') {
                tokens += 1;
            }
        }
    }
    if run_len > 0 {
        tokens += run_len.div_ceil(4);
    }
    tokens
}

/// [`count_tokens`] over arbitrary text, one `char` at a time.
fn count_char_tokens(text: &str) -> usize {
    let mut tokens = 0usize;
    let mut run_len = 0usize;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            run_len += 1;
        } else {
            if run_len > 0 {
                tokens += run_len.div_ceil(4);
                run_len = 0;
            }
            if !ch.is_whitespace() {
                tokens += 1;
            }
        }
    }
    if run_len > 0 {
        tokens += run_len.div_ceil(4);
    }
    tokens
}

/// Estimate the number of tokens a completion of `text` would produce.
/// Identical to [`count_tokens`] today; a distinct entry point so output
/// accounting can diverge from input accounting later without call-site
/// churn.
#[inline]
pub fn count_output_tokens(text: &str) -> usize {
    count_tokens(text)
}

/// Truncate `text` to at most `max_tokens`, keeping the head and the tail
/// (documents often carry key content — titles up front, data-availability
/// sections at the end — so head+tail beats plain prefix truncation).
/// Returns the input itself, not a copy, when it already fits.
pub fn truncate_to_tokens(text: String, max_tokens: usize) -> String {
    if count_tokens(&text) <= max_tokens {
        return text;
    }
    let words: Vec<&str> = text.split_inclusive(char::is_whitespace).collect();
    let half_budget = max_tokens.saturating_sub(4) / 2;
    let mut head = String::new();
    let mut used = 0usize;
    let mut head_end = 0usize;
    for (i, w) in words.iter().enumerate() {
        let t = count_tokens(w);
        if used + t > half_budget {
            head_end = i;
            break;
        }
        head.push_str(w);
        used += t;
        head_end = i + 1;
    }
    let mut tail = String::new();
    used = 0;
    let mut tail_start = words.len();
    for (i, w) in words.iter().enumerate().rev() {
        if i < head_end {
            break;
        }
        let t = count_tokens(w);
        if used + t > half_budget {
            break;
        }
        tail.insert_str(0, w);
        used += t;
        tail_start = i;
    }
    if tail_start <= head_end {
        format!("{head}{tail}")
    } else {
        format!("{head}\n…\n{tail}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(count_tokens(""), 0);
    }

    #[test]
    fn whitespace_is_free() {
        assert_eq!(count_tokens("   \n\t  "), 0);
    }

    #[test]
    fn short_words_are_one_token() {
        assert_eq!(count_tokens("the cat sat"), 3);
    }

    #[test]
    fn long_words_split() {
        // "internationalization" = 20 chars -> 5 tokens
        assert_eq!(count_tokens("internationalization"), 5);
    }

    #[test]
    fn punctuation_counts() {
        assert_eq!(count_tokens("a,b"), 3);
        assert_eq!(count_tokens("end."), 2);
    }

    #[test]
    fn url_costs_multiple_tokens() {
        let n = count_tokens("https://portal.gdc.cancer.gov/projects/TCGA-COAD");
        assert!(n >= 10, "urls should be token-expensive, got {n}");
    }

    #[test]
    fn truncate_noop_when_fits() {
        assert_eq!(truncate_to_tokens("short text".into(), 100), "short text");
    }

    #[test]
    fn truncate_keeps_head_and_tail() {
        let text = format!(
            "Title: colorectal cancer study\n{}\nURL: https://portal.example.org/data\n",
            "filler words here ".repeat(500)
        );
        let cut = truncate_to_tokens(text, 200);
        assert!(count_tokens(&cut) <= 210, "got {}", count_tokens(&cut));
        assert!(cut.contains("colorectal cancer"), "head lost");
        assert!(cut.contains("portal.example.org"), "tail lost");
        assert!(cut.contains('…'));
    }

    #[test]
    fn truncate_respects_budget_property() {
        for budget in [16, 64, 256] {
            let text = "word ".repeat(2000);
            let cut = truncate_to_tokens(text, budget);
            assert!(count_tokens(&cut) <= budget + 8, "budget {budget}");
        }
    }

    /// The counting rule restated independently of both counting loops:
    /// each maximal alphanumeric run costs `ceil(len / 4)`, every other
    /// non-whitespace `char` costs one.
    fn reference_count(text: &str) -> usize {
        let chars: Vec<char> = text.chars().collect();
        let runs: usize = chars
            .split(|c| !c.is_alphanumeric())
            .map(|run| run.len().div_ceil(4))
            .sum();
        let others = chars
            .iter()
            .filter(|c| !c.is_alphanumeric() && !c.is_whitespace())
            .count();
        runs + others
    }

    #[test]
    fn every_ascii_byte_counts_as_its_char() {
        for b in 0u8..=0x7f {
            let c = char::from(b);
            for text in [format!("{c}"), format!("ab{c}cd"), format!("{c}{c}xyz{c}")] {
                assert_eq!(count_tokens(&text), reference_count(&text), "byte {b:#04x}");
            }
        }
    }

    proptest! {
        #[test]
        fn ascii_count_matches_char_rule(s in "[\u{0}-\u{7f}]{0,160}") {
            prop_assert_eq!(count_tokens(&s), reference_count(&s));
        }

        #[test]
        fn mixed_count_matches_char_rule(
            s in "[a-zA-Z0-9 .,:\t\n\r\u{b}\u{c}\u{1c}-\u{1f}\u{85}\u{a0}\u{2003}é日—]{0,160}"
        ) {
            prop_assert_eq!(count_tokens(&s), reference_count(&s));
        }

        #[test]
        fn arbitrary_count_matches_char_rule(
            cps in proptest::collection::vec(any::<u32>(), 0..64)
        ) {
            let s: String = cps.iter().filter_map(|&cp| char::from_u32(cp % 0x11_0000)).collect();
            prop_assert_eq!(count_tokens(&s), reference_count(&s));
        }

        #[test]
        fn truncate_never_exceeds_budget_much(
            text in "[a-z ]{0,400}", budget in 8usize..64
        ) {
            let cut = truncate_to_tokens(text, budget);
            prop_assert!(count_tokens(&cut) <= budget + 8);
        }

        #[test]
        fn monotone_under_concat(a in ".{0,64}", b in ".{0,64}") {
            let ab = format!("{a}{b}");
            prop_assert!(count_tokens(&ab) >= count_tokens(&a).max(count_tokens(&b)) ||
                // Concatenation can merge two short runs into one longer run,
                // which never *reduces* the count below either side by more
                // than the merge saving of one token.
                count_tokens(&ab) + 1 >= count_tokens(&a).max(count_tokens(&b)));
        }

        #[test]
        fn bounded_by_char_count(s in ".{0,256}") {
            prop_assert!(count_tokens(&s) <= s.chars().count());
        }

        #[test]
        fn concat_subadditive(a in "[a-z ]{0,64}", b in "[a-z ]{0,64}") {
            let ab = format!("{a}{b}");
            prop_assert!(count_tokens(&ab) <= count_tokens(&a) + count_tokens(&b) + 1);
        }
    }
}
