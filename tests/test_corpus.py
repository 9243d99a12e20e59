"""Treebank parsing, SU/NSU classification, conversion, and statistics."""

import json
import os
import pickle
import re
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentid.corpus import (
    Corpus,
    ConlluError,
    ConlluParseError,
    ConlluSentence,
    ConlluStructureError,
    CorpusStats,
    RelationRuleSet,
    Unit,
    classify_unit,
    compute_stats,
    convert_treebank,
    gold_documents,
    gold_word_labels,
    parse_conllu,
    unit_spans,
)

from oracles import (
    PairUnit,
    compute_stats_per_unit,
    corpus_load_lines,
    gold_documents_walk,
    gold_word_labels_loop,
    offset_pairs,
    parse_conllu_two_paths,
)
from synth import json_lines_text, synthetic_corpus, unit_from_words


def block(*rows):
    return "\n".join(rows) + "\n\n"


def tok(i, form, head, deprel, misc="_"):
    return f"{i}\t{form}\t_\t_\t_\t_\t{head}\t{deprel}\t_\t{misc}"


THANK_YOU = block(
    tok(1, "Thank", 0, "root"),
    tok(2, "you", 1, "obj", "SpaceAfter=No"),
    tok(3, ".", 1, "punct"),
)

FILE_METADATA = block(
    tok(1, "-", 2, "punct"),
    tok(2, "TEXT.htm", 0, "root"),
    tok(3, "<<", 2, "punct"),
    tok(4, "File", 2, "appos", "SpaceAfter=No"),
    tok(5, ":", 4, "punct"),
    tok(6, "TEXT.htm", 4, "flat"),
    tok(7, ">>", 2, "punct"),
)

HOVER = block(
    tok(1, "I", 3, "nsubj"),
    tok(2, "was", 3, "aux"),
    tok(3, "thinking", 0, "root"),
    tok(4, "of", 5, "mark"),
    tok(5, "converting", 3, "advcl"),
    tok(6, "it", 5, "obj", "SpaceAfter=No"),
    tok(7, ".", 3, "punct"),
)

SELL = block(
    tok(1, "I", 4, "nsubj"),
    tok(2, "might", 4, "aux"),
    tok(3, "just", 4, "advmod"),
    tok(4, "sell", 0, "root"),
    tok(5, "the", 6, "det"),
    tok(6, "car", 4, "obj", "SpaceAfter=No"),
    tok(7, ".", 4, "punct"),
)

NOUN_PHRASE = block(
    tok(1, "The", 3, "det"),
    tok(2, "federal", 3, "amod"),
    tok(3, "sites", 0, "root"),
    tok(4, "of", 5, "case"),
    tok(5, "Washington", 3, "nmod"),
)


class TestParseConllu:
    def test_space_after_suppresses_space(self):
        sents = parse_conllu(
            block(tok(1, "Hello", 0, "root", "SpaceAfter=No"), tok(2, "world", 1, "vocative"))
        )
        assert len(sents) == 1
        assert sents[0].raw_text == "Helloworld"
        assert sents[0].offsets == (0, 5, 5, 10)

    def test_multiword_token_surface(self):
        sents = parse_conllu(
            block(
                tok(1, "He", 3, "nsubj"),
                tok(2, "ca", 3, "aux"),  # covered below
                "3-4\tdon't\t_\t_\t_\t_\t_\t_\t_\t_",
                tok(3, "do", 0, "root"),
                tok(4, "n't", 3, "advmod"),
            )
        )
        (s,) = sents
        assert s.raw_text == "He ca don't"
        assert s.deprels == ("nsubj", "aux", "root", "advmod")
        # covered tokens pack into the range form's span
        assert s.offsets[4:6] == (6, 8)
        assert s.offsets[6:8] == (8, 11)

    @pytest.mark.parametrize(
        "ranges, message",
        [
            (("1-2", "2-3"), "line 3: token range 2-3 overlaps token range 1-2"),
            (("1-3", "2-2"), "line 3: token range 2-2 overlaps token range 1-3"),
            (("1-3", "3-3"), "line 4: token range 3-3 overlaps token range 1-3"),
            (("1-2", "1-2"), "line 2: token range 1-2 overlaps token range 1-2"),
        ],
    )
    def test_overlapping_token_ranges_rejected(self, ranges, message):
        # a later range used to take over the earlier one's words, dropping a form
        words = [tok(1, "a", 0, "root"), tok(2, "b", 1, "obj"), tok(3, "c", 1, "obj")]
        rows = []
        for i, word in enumerate(words, start=1):
            # each range stands just before its first word
            rows += [
                f"{r}\tmw{k}\t_\t_\t_\t_\t_\t_\t_\t_"
                for k, r in enumerate(ranges)
                if r.startswith(f"{i}-")
            ]
            rows.append(word)
        with pytest.raises(ConlluStructureError) as info:
            parse_conllu(block(*rows))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "ids, message",
        [
            ((1, 3), "line 2: word id '3', expected 2"),  # a skipped id
            ((2, 1), "line 1: word id '2', expected 1"),  # ids out of order
        ],
    )
    def test_word_ids_must_count_up_from_one(self, ids, message):
        # both used to convert to the SU unit "He runs"
        rows = [tok(ids[0], "He", ids[1], "nsubj"), tok(ids[1], "runs", 0, "root")]
        with pytest.raises(ConlluParseError) as info:
            parse_conllu(block(*rows))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a range before a word it does not cover
            (
                ["2-3\tbc\t_\t_\t_\t_\t_\t_\t_\t_"],
                "line 1: token range '2-3' does not start at the next word id 1",
            ),
            # a range after its first word
            (
                [tok(1, "a", 0, "root"), "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_"],
                "line 2: token range '1-2' does not start at the next word id 2",
            ),
        ],
    )
    def test_token_range_must_start_at_the_next_word(self, rows, message):
        words = [tok(1, "a", 0, "root"), tok(2, "b", 1, "obj"), tok(3, "c", 1, "obj")]
        rows = rows + [w for w in words if w not in rows]
        with pytest.raises(ConlluParseError) as info:
            parse_conllu(block(*rows))
        assert str(info.value) == message

    def test_adjacent_token_ranges(self):
        sents = parse_conllu(
            block(
                "1-2\tab\t_\t_\t_\t_\t_\t_\t_\tSpaceAfter=No",
                tok(1, "a", 0, "root"),
                tok(2, "b", 1, "obj"),
                "3-3\tC\t_\t_\t_\t_\t_\t_\t_\t_",
                tok(3, "cc", 1, "obj"),
                tok(4, "d", 1, "obj"),
            )
        )
        assert sents[0].raw_text == "abC d"
        assert sents[0].offsets == (0, 1, 1, 2, 2, 3, 4, 5)

    def test_empty_nodes_skipped(self):
        sents = parse_conllu(
            block(
                tok(1, "Go", 0, "root"),
                "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
                tok(2, "now", 1, "advmod"),
            )
        )
        assert sents[0].forms == ("Go", "now")
        assert len(sents[0].deprels) == 2

    def test_empty_input(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n# only comments\n\n") == []

    def test_malformed_column_count(self):
        with pytest.raises(ConlluParseError, match="line 2"):
            parse_conllu("# ok\n1\tword\t_\n")

    def test_dangling_head(self):
        with pytest.raises(ConlluStructureError, match="head 7"):
            parse_conllu(block(tok(1, "a", 7, "nsubj"), tok(2, "b", 0, "root")))

    def test_root_count_enforced(self):
        with pytest.raises(ConlluStructureError, match="root"):
            parse_conllu(block(tok(1, "a", 0, "root"), tok(2, "b", 0, "root")))

    def test_comments_anywhere(self):
        sents = parse_conllu("# sent_id = x\n" + tok(1, "Hi", 0, "root") + "\n# trailing\n\n")
        assert sents[0].raw_text == "Hi"

    def test_bytes_input(self):
        sents = parse_conllu(block(tok(1, "café", 0, "root")).encode("utf-8"))
        assert sents[0].raw_text == "café"

    def test_crlf_line_endings_match_lf(self):
        # MISC is the last column: with CRLF it used to keep the "\r", so
        # SpaceAfter=No went unseen and the text became "Hello !"
        text = block(tok(1, "Hello", 0, "root", "SpaceAfter=No"), tok(2, "!", 1, "punct"))
        lf = parse_conllu(text)
        crlf = parse_conllu(text.replace("\n", "\r\n"))
        assert crlf == lf
        assert crlf[0].raw_text == "Hello!"
        assert crlf[0].offsets == (0, 5, 5, 6)


# CoNLL-U-shaped text: sentence blocks with numbered tokens, mostly valid
# heads, MISC values and multiword ranges, mixed with rows of any shape
_FIELD = st.text(st.characters(blacklist_characters="\t\n\r"), max_size=4)
_MISC = st.one_of(
    st.sampled_from(["_", "SpaceAfter=No", "Foo=1|SpaceAfter=No", "SpaceAfter=Yes"]), _FIELD
)
_ODD_ID = st.sampled_from(["0", "9", "1.1", "-", "1-", "3-1", "1-9", "1-2-3", "x", ""])


def _row(tok_id, form, head, misc):
    return "\t".join([tok_id, form, "_", "_", "_", "_", head, "nsubj", "_", misc])


@st.composite
def _sentence_block(draw):
    n = draw(st.integers(1, 4))
    root = draw(st.integers(1, n))
    rows = []
    for i in range(1, n + 1):
        head = str(0 if i == root else draw(st.integers(1, n)))
        if draw(st.integers(0, 9)) == 0:
            head = draw(st.one_of(st.integers(-1, 7).map(str), _FIELD))
        tok_id = str(i) if draw(st.integers(0, 9)) else draw(_ODD_ID)
        rows.append(_row(tok_id, draw(_FIELD), head, draw(_MISC)))
    if draw(st.booleans()):
        start = draw(st.integers(1, n))
        end = draw(st.integers(start, n))
        rows.insert(start - 1, _row(f"{start}-{end}", draw(_FIELD), "_", draw(_MISC)))
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), _row("1.1", "x", "_", "_"))
    return rows


_OTHER_LINES = st.lists(
    st.one_of(
        st.just(""),
        _FIELD.map(lambda s: "# " + s),
        st.lists(_FIELD, max_size=12).map("\t".join),
        st.builds(_row, _ODD_ID, _FIELD, _FIELD, _MISC),
    ),
    max_size=3,
)
_CONLLU_TEXT = st.builds(
    lambda blocks, end: "\n\n".join("\n".join(b) for b in blocks) + end,
    st.lists(st.one_of(_sentence_block(), _sentence_block(), _OTHER_LINES), max_size=4),
    st.sampled_from(["", "\n", "\n\n"]),
)


def _parse_outcome(data):
    try:
        return parse_conllu(data)
    except ConlluError as exc:
        return type(exc), str(exc)


class TestParseConlluFuzz:
    @given(_CONLLU_TEXT)
    def test_parses_or_raises_conllu_error(self, text):
        out = _parse_outcome(text)
        if isinstance(out, list):
            assert all(isinstance(s, ConlluSentence) for s in out)
            for s in out:
                assert len(s.forms) == len(s.deprels) and len(s.offsets) == 2 * len(s.forms)

    @given(_CONLLU_TEXT)
    def test_crlf_same_as_lf(self, text):
        assert _parse_outcome(text.replace("\n", "\r\n")) == _parse_outcome(text)

    @given(st.text(max_size=60))
    def test_arbitrary_text(self, text):
        _parse_outcome(text)


# sentence blocks of one root and disjoint multiword ranges, sometimes with
# one more range that may overlap another or leave the sentence
@st.composite
def _ranged_block(draw):
    n = draw(st.integers(1, 6))
    root = draw(st.integers(1, n))
    rows = [
        _row(str(i), draw(_FIELD), str(0 if i == root else draw(st.integers(1, n))), draw(_MISC))
        for i in range(1, n + 1)
    ]
    ranges = []  # (word the range stands before, range id)
    tid = 1
    while tid <= n:
        if draw(st.booleans()):
            end = min(n, tid + draw(st.integers(0, 2)))
            ranges.append((tid, f"{tid}-{end}"))
            tid = end + 1
        else:
            tid += 1
    if draw(st.booleans()):
        start = draw(st.integers(0, n + 1))
        # mostly before its first word, as CoNLL-U places a range; sometimes anywhere
        at = start if draw(st.integers(0, 3)) else draw(st.integers(1, n + 1))
        ranges.append((at, f"{start}-{draw(st.integers(start - 1, n + 1))}"))
    out = []
    for i, row in enumerate([*rows, None], start=1):
        out += [_row(r, draw(_FIELD), "_", draw(_MISC)) for at, r in ranges if max(at, 1) == i]
        if row is not None:
            out.append(row)
    return out


_RANGED_TEXT = st.builds(
    lambda blocks, end: "\n\n".join("\n".join(b) for b in blocks) + end,
    st.lists(st.one_of(_ranged_block(), _sentence_block(), _OTHER_LINES), max_size=4),
    st.sampled_from(["", "\n", "\n\n"]),
)


def _ids_out_of_order(text):
    """True when a sentence's word ids do not count up from 1, or a multiword range
    does not stand just before its first word."""
    words = 0
    for line in text.split("\n"):
        cols = line.split("\t")
        if not line.strip():
            words = 0
        elif len(cols) == 10 and not line.startswith("#") and not re.fullmatch(r"\d+\.\d+", cols[0]):
            try:
                if int(cols[0].split("-", 1)[0]) != words + 1:
                    return True
            except ValueError:
                continue
            words += "-" not in cols[0]
    return False


def _ranges_overlap(text):
    """True when two multiword ranges of one sentence share a word."""
    seen = set()
    for line in text.split("\n"):
        tok_id = line.split("\t", 1)[0]
        if not line.strip():
            seen = set()
        elif re.fullmatch(r"\d+-\d+", tok_id):
            start, end = map(int, tok_id.split("-"))
            if seen & set(range(start, end + 1)):
                return True
            seen |= set(range(start, end + 1))
    return False


class TestOneOffsetLoop:
    """`parse_conllu` against the parser with separate paths for plain and multiword tokens."""

    @settings(max_examples=400)
    @given(_RANGED_TEXT)
    def test_matches_two_paths(self, text):
        new = _parse_outcome(text)
        if isinstance(new, list):
            new = [(s.forms, s.deprels, s.raw_text, offset_pairs(s.offsets)) for s in new]
        try:
            old = [
                (forms, tuple(rel for _, rel in pairs), raw, offsets)
                for forms, pairs, raw, offsets in parse_conllu_two_paths(text)
            ]
        except ConlluError as exc:
            old = type(exc), str(exc)
        if new != old:
            # the old parser took overlapping ranges, and word ids out of order, silently
            if new[0] is ConlluParseError:
                assert _ids_out_of_order(text)
            else:
                assert new[0] is ConlluStructureError and " overlaps token range " in new[1]
                assert _ranges_overlap(text)


class TestClassifyUnit:
    def parse_one(self, text):
        return parse_conllu(text)[0]

    def test_thank_you_is_su(self):
        assert classify_unit(self.parse_one(THANK_YOU)) is True

    def test_file_metadata_is_nsu(self):
        assert classify_unit(self.parse_one(FILE_METADATA)) is False

    def test_bare_noun_phrase_is_nsu(self):
        assert classify_unit(self.parse_one(NOUN_PHRASE)) is False

    def test_subtype_stripped(self):
        sent = self.parse_one(
            block(tok(1, "It", 2, "nsubj:pass"), tok(2, "broke", 0, "root"))
        )
        assert classify_unit(sent) is True

    def test_custom_rules(self):
        rules = RelationRuleSet(core_arguments=frozenset({"obj"}), noncore_dependents=frozenset())
        assert classify_unit(self.parse_one(THANK_YOU), rules) is True
        assert classify_unit(self.parse_one(NOUN_PHRASE), rules) is False

    def test_order_invariant(self):
        a = block(tok(1, "Thank", 0, "root"), tok(2, "you", 1, "obj"))
        sent_a = self.parse_one(a)
        reordered = type(sent_a)(
            forms=sent_a.forms,
            deprels=tuple(reversed(sent_a.deprels)),
            raw_text=sent_a.raw_text,
            offsets=sent_a.offsets,
        )
        assert classify_unit(sent_a) == classify_unit(reordered) is True

    def test_rules_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('{"core_arguments": ["obj"], "noncore_dependents": []}')
        rules = RelationRuleSet.from_file(path)
        assert rules.sentential_relations == frozenset({"obj"})
        path.write_text('{"core": []}')
        with pytest.raises(ValueError, match="unknown rule keys"):
            RelationRuleSet.from_file(path)


class TestConvertTreebank:
    def test_mixed_web_text_scenario(self):
        sents = parse_conllu(THANK_YOU + FILE_METADATA + HOVER + SELL)
        corp = convert_treebank(sents)
        assert [u.is_su for u in corp.units] == [True, False, True, True]
        assert len(corp.units) == len(sents)
        assert corp.units[0].text == "Thank you."

    def test_all_su_newswire_has_no_nsu(self):
        sents = parse_conllu(THANK_YOU + HOVER + SELL)
        stats = compute_stats(convert_treebank(sents))
        assert stats.nsu_count == 0

    def test_empty(self):
        corp = convert_treebank([])
        assert len(corp.units) == 0

    def test_order_preserved(self):
        sents = parse_conllu(FILE_METADATA + THANK_YOU)
        corp = convert_treebank(sents)
        assert [u.is_su for u in corp.units] == [False, True]


class TestStats:
    def test_single_su(self):
        sents = parse_conllu(
            block(tok(1, "Hi", 0, "root", "SpaceAfter=No"), tok(2, ".", 1, "vocative"))
        )
        stats = compute_stats(convert_treebank(sents))
        assert (stats.su_count, stats.nsu_count) == (1, 0)
        assert (stats.word_b, stats.word_i, stats.word_o) == (1, 1, 0)
        assert (stats.char_b, stats.char_i, stats.char_o) == (1, 2, 0)

    def test_b_counts_equal_su_count(self):
        sents = parse_conllu(THANK_YOU + FILE_METADATA + HOVER)
        stats = compute_stats(convert_treebank(sents))
        assert stats.word_b == stats.char_b == stats.su_count == 2

    def test_additive(self):
        sents = parse_conllu(THANK_YOU + FILE_METADATA + HOVER + SELL)
        corp = convert_treebank(sents)
        left = Corpus(corp.units[:2])
        right = Corpus(corp.units[2:])
        assert compute_stats(left) + compute_stats(right) == compute_stats(corp)

    @given(
        st.lists(
            st.builds(
                Unit,
                text=st.text("ab .", max_size=12),
                words=st.lists(st.text("ab", max_size=3), max_size=4).map(tuple),
                is_su=st.booleans(),
                offsets=st.just(()),
            ),
            max_size=8,
        )
    )
    @example(synthetic_corpus(300, seed=41).units)
    def test_sums_equal_the_per_unit_loop(self, units):
        assert compute_stats(Corpus(units)) == compute_stats_per_unit(Corpus(units))

    def test_to_dict(self):
        d = CorpusStats(su_count=1, word_b=1, word_i=2, char_b=1, char_i=3).to_dict()
        assert d["word"] == {"B": 1, "I": 2, "O": 0}
        assert d["char"]["I"] == 3


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        sents = parse_conllu(THANK_YOU + FILE_METADATA)
        corp = convert_treebank(sents)
        path = tmp_path / "corpus.jsonl"
        corp.save(path)
        loaded = Corpus.load(path)
        assert [u.text for u in loaded.units] == [u.text for u in corp.units]
        assert [u.is_su for u in loaded.units] == [True, False]
        assert loaded.units[0].offsets == corp.units[0].offsets

    def test_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x"}\n')
        with pytest.raises(ValueError, match="line 1"):
            Corpus.load(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("text", 5),
            ("words", [12]),
            ("words", "ab"),
            ("char_offsets", [[0, 1.0]]),
            ("char_offsets", [[0, True]]),
            ("char_offsets", [[0, 1, 2]]),
            ("char_offsets", "ab"),
            ("is_su", "false"),
            ("is_su", 1),
        ],
    )
    def test_wrong_field_type_rejected(self, tmp_path, field, value):
        # "false" used to load as True, and [12] as a word without a length
        rec = {"text": "ab", "words": ["ab"], "char_offsets": [[0, 2]], "is_su": False}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, field: value}) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            Corpus.load(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("words", [12], "word 12 at (0, 2): expected a string and two ints"),
            ("char_offsets", [[0, True]], "word 'ab' at (0, True): expected a string and two ints"),
            # an empty unit used to load, and an SU one to render as "B": a label with no word
            ("words", [], "a unit needs at least one word"),
        ],
    )
    def test_wrong_type_message(self, tmp_path, field, value, message):
        # words are interned only after validate(): intern() of a non-string
        # would raise its own TypeError first
        rec = {"text": "ab", "words": ["ab"], "char_offsets": [[0, 2]], "is_su": False}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, field: value}) + "\n")
        with pytest.raises(ValueError) as info:
            Corpus.load(path)
        assert str(info.value) == f"{path}: bad corpus record on line 2: {message}"

    def test_loaded_units_share_word_strings(self, tmp_path):
        # longer than one character: CPython shares one-character strings anyway
        two = Unit("ab cd", ("ab", "cd"), True, (0, 2, 3, 5))
        corp = Corpus([two, two, Unit("cd", ("cd",), False, (0, 2))])
        path = tmp_path / "corpus.jsonl"
        corp.save(path)
        loaded = Corpus.load(path)
        assert loaded.units == corp.units
        first, second, third = (u.words for u in loaded.units)
        assert first[0] is second[0] and first[1] is second[1] is third[0]

    def test_unit_equality_and_hash(self, tmp_path):
        # value semantics over the four fields, as a frozen dataclass without slots has
        u = Unit("a b", ("a", "b"), True, (0, 1, 2, 3))
        same = Unit("a b", tuple("a b".split()), True, (0, 1, 2, 3))
        assert u == same and hash(u) == hash(same)
        assert hash(u) == hash(("a b", ("a", "b"), True, (0, 1, 2, 3)))
        assert u != Unit("a b", ("a", "b"), False, (0, 1, 2, 3))
        assert u != ("a b", ("a", "b"), True, (0, 1, 2, 3))
        assert len({u, same}) == 1
        with pytest.raises(AttributeError):
            u.is_su = False
        assert pickle.loads(pickle.dumps(u)) == u
        path = tmp_path / "corpus.jsonl"
        Corpus([u]).save(path)
        [loaded] = Corpus.load(path).units
        assert loaded == u and hash(loaded) == hash(u)

    def test_gold_word_labels(self):
        corp = convert_treebank(parse_conllu(THANK_YOU + FILE_METADATA))
        assert gold_word_labels(corp.units).labels == "BII" + "OOOOOOO"


def _units(shape):
    """Units of the given (word count, is_su) pairs."""
    return [unit_from_words([f"w{i}" for i in range(n)], is_su) for n, is_su in shape]


class TestGoldLabels:
    def test_unit_spans_of_mixed_run(self):
        units = _units([(2, False), (3, True), (1, True), (4, False), (1, False), (2, True)])
        assert list(unit_spans(units)) == [(2, 5), (5, 6), (11, 13)]
        assert gold_word_labels(units).labels == "OO" + "BII" + "B" + "OOOOO" + "BI"
        assert list(unit_spans([])) == [] and gold_word_labels([]).labels == ""

    @given(st.lists(st.tuples(st.integers(1, 8), st.booleans()), max_size=12))
    def test_gold_word_labels_match_per_unit_strings(self, shape):
        units = _units(shape)
        labels = gold_word_labels(units)
        assert labels.granularity == "word"
        assert labels.labels == gold_word_labels_loop(units)

    def test_gold_documents_align_to_units(self):
        units = _units([(2, True), (1, False), (3, True)])
        docs = list(gold_documents(units, [3, 3]))
        assert [labels.labels for labels, _ in docs] == ["BIO", "BII"]
        assert [words for _, words in docs] == [["w0", "w1", "w0"], ["w0", "w1", "w2"]]
        for lengths, message in (
            ([2, 2, 2], "document of 2 tokens does not align with unit boundaries"),
            ([3, 3, 1], "predictions cover more tokens than the corpus"),
            ([3], "predictions cover fewer tokens than the corpus"),
        ):
            with pytest.raises(ValueError) as info:
                list(gold_documents(units, lengths))
            assert str(info.value) == message

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=8),
        st.lists(st.integers(-1, 9), max_size=5),
    )
    @example([(2, True), (1, False), (3, True)], [3, 3])
    @example([(2, True), (0, False), (1, True)], [2, 0, 1])  # an empty unit stays with the next
    @example([(0, True), (2, False)], [2, 1])  # an empty SU unit has no span: a LabelError
    @example([(1, True)], [0, 1, 0])
    @example([(2, False)], [-1])
    def test_gold_documents_match_unit_by_unit_walk(self, shape, lengths):
        units = _units(shape)
        outcomes = []
        for build in (gold_documents, gold_documents_walk):
            try:
                outcomes.append([(labels, words) for labels, words in build(units, lengths)])
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_UNIT_FIELDS = ("text", "words", "char_offsets", "is_su")


def _unit_record(text, n_words, is_su):
    words = text.split()[:n_words]
    offsets, cursor = [], 0
    for w in words:
        start = text.index(w, cursor)
        offsets.append([start, start + len(w)])
        cursor = start + len(w)
    return {"text": text, "words": words, "char_offsets": offsets, "is_su": is_su}


_GOOD_UNIT = st.builds(
    _unit_record,
    st.text("ab .\u2028\x85é", max_size=8).filter(lambda t: t.split()),  # \u2028 and \x85 end no line
    st.integers(1, 4),
    st.booleans(),
)
_UNIT = st.builds(_unit_record, st.text("ab .", max_size=8), st.integers(0, 4), st.booleans())


def _dumped(records):
    return st.builds(lambda r, ascii: json.dumps(r, ensure_ascii=ascii), records, st.booleans())


_CORPUS_TEXT = json_lines_text(
    _dumped(_GOOD_UNIT),
    st.one_of(
        _dumped(_UNIT),
        # a well-formed record with one field replaced or dropped
        st.builds(
            lambda rec, field, value, drop: json.dumps(
                {k: v for k, v in {**rec, field: value}.items() if not (drop and k == field)}
            ),
            _UNIT,
            st.sampled_from(_UNIT_FIELDS),
            _JSON,
            st.booleans(),
        ),
        _JSON.map(json.dumps),
    ),
)
_ONE_UNIT = json.dumps(_unit_record("ab cd", 2, True))


def _outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return type(exc), str(exc)


class TestCorpusLoadFuzz:
    @settings(max_examples=300)
    @given(_CORPUS_TEXT)
    @example('{"text": "ab", "words": [12], "char_offsets": [[0, 2]], "is_su": true}\n')
    @example("[" * 100_000 + "\n")
    @example("\ufeff" + _ONE_UNIT + "\n")
    @example(_ONE_UNIT + " \r\n" + _ONE_UNIT + "\x0c\r" + _ONE_UNIT)
    @example(_ONE_UNIT + "\n\n  \n" + _ONE_UNIT + _ONE_UNIT + "\n")
    def test_loads_or_raises_value_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.jsonl")
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            # the units or the message of one json.loads per line
            outcome = _outcome(lambda p: Corpus.load(p).units, path)
            as_pairs = outcome if isinstance(outcome, tuple) else list(map(PairUnit.of, outcome))
            assert as_pairs == _outcome(corpus_load_lines, path)
            if not isinstance(outcome, list):
                return
            # what loads is well-typed and saves back to the same units
            for u in outcome:
                assert isinstance(u.is_su, bool) and all(isinstance(w, str) for w in u.words)
                assert len(u.words) >= 1
            Corpus(outcome).save(path)
            assert Corpus.load(path).units == outcome


def _with_pair(rec, i, pair):
    """`rec` with its pair `i` (modulo the pair count) replaced by `pair`, if it has pairs."""
    pairs = list(rec["char_offsets"])
    if pairs:
        pairs[i % len(pairs)] = pair
    return {**rec, "char_offsets": pairs}


def _regrouped(rec, sizes):
    """`rec` with the entries of its pairs, in order, regrouped into as many lists of the
    given sizes, the last list taking what is left."""
    flat = [x for pair in rec["char_offsets"] for x in pair]
    pairs, k = [], 0
    for n in sizes[: len(rec["char_offsets"]) - 1]:
        pairs.append(flat[k : k + n])
        k += n
    return {**rec, "char_offsets": pairs + [flat[k:]] if flat else []}


# one char_offsets entry, most of them malformed: 0 to 3 entries, decreasing
# offsets, offsets past the text, floats, bools, and entries that are no list
_PAIR = st.one_of(
    st.lists(st.integers(-1, 9), max_size=3),
    st.lists(st.one_of(st.integers(0, 9), st.floats(0, 9), st.booleans()), min_size=2, max_size=2),
    st.sampled_from([5, 1.5, None, True, "", "ab", "abc", {"3": 0, "5": 1}]),
)
_OFFSET_RECORD = st.one_of(
    _GOOD_UNIT,
    st.builds(_with_pair, _GOOD_UNIT, st.integers(0, 3), _PAIR),
    # as many entries as the pairs had, in lists of 0 to 3: [[0, 2, 3], [5]]
    st.builds(_regrouped, _GOOD_UNIT, st.lists(st.integers(0, 3), min_size=3, max_size=3)),
    st.builds(
        lambda rec, pairs: {**rec, "char_offsets": pairs},
        _GOOD_UNIT,
        st.one_of(st.lists(_PAIR, max_size=4), _JSON),  # _JSON: mostly no list
    ),
)
_AB_CD = {"text": "ab cd", "words": ["ab", "cd"], "char_offsets": [[0, 2], [3, 5]], "is_su": True}


def _load_outcomes(text):
    """`Corpus.load`'s units as `PairUnit`s or its error, and `corpus_load_lines`'s, of `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        new = _outcome(lambda p: list(map(PairUnit.of, Corpus.load(p).units)), path)
        return new, _outcome(corpus_load_lines, path), path


class TestFlatOffsetLoader:
    """`Corpus.load`, which holds each unit's offsets in one flat tuple, against the pair loader."""

    @settings(max_examples=300)
    @given(st.lists(_OFFSET_RECORD, min_size=1, max_size=4))
    def test_same_units_or_message(self, records):
        new, old, _ = _load_outcomes("".join(json.dumps(r) + "\n" for r in records))
        assert new == old

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"char_offsets": [[0, 2], []]}, "not enough values to unpack (expected 2, got 0)"),
            ({"char_offsets": [[0, 2], [3]]}, "not enough values to unpack (expected 2, got 1)"),
            # four entries, as two pairs would have
            ({"char_offsets": [[0, 2, 3], [5]]}, "too many values to unpack (expected 2)"),
            ({"char_offsets": [[0, 2], "abc"]}, "too many values to unpack (expected 2)"),
            # the first word's checks come before the second pair is unpacked
            ({"char_offsets": [[0, 9], [3]]}, "offset (0, 9) not monotone within text"),
            ({"words": ["ab", 7], "char_offsets": [[0, 2], [3]]},
             "not enough values to unpack (expected 2, got 1)"),
            ({"words": [7, "cd"], "char_offsets": [[0, 2], [3]]},
             "word 7 at (0, 2): expected a string and two ints"),
            # a pair that is no iterable fails before any field is checked
            ({"text": 5, "char_offsets": [[0, 2], 5]}, "'int' object is not iterable"),
            ({"text": 5, "char_offsets": [[0, 2], [3]]}, "text must be a string"),
            ({"is_su": 1, "char_offsets": [[0, 2], [3]]}, "is_su must be true or false, got 1"),
            ({"char_offsets": [[0, 2], "ab"]}, "word 'cd' at ('a', 'b'): expected a string and two ints"),
            ({"char_offsets": [[0, 2], {"3": 0, "5": 1}]},
             "word 'cd' at ('3', '5'): expected a string and two ints"),
            ({"char_offsets": [[0, 2], [3, 5.0]]}, "word 'cd' at (3, 5.0): expected a string and two ints"),
            ({"char_offsets": [[0, 2], [3, True]]}, "word 'cd' at (3, True): expected a string and two ints"),
            ({"char_offsets": [[0, 2], [1, 5]]}, "offset (1, 5) not monotone within text"),
            ({"char_offsets": [[0, 2], [5, 3]]}, "offset (5, 3) not monotone within text"),
            ({"char_offsets": [[0, 2], [3, 6]]}, "offset (3, 6) not monotone within text"),
            ({"char_offsets": [[0, 2, 3, 5]]}, "words and char_offsets must align"),
            ({"char_offsets": [[0, 2], [3, 5], [5, 5]]}, "words and char_offsets must align"),
            ({"char_offsets": [[0, 2], []], "words": ["ab"]}, "words and char_offsets must align"),
            ({"char_offsets": "ab"}, "words and char_offsets must be lists"),
        ],
    )
    def test_malformed_pair_message(self, change, message):
        new, old, path = _load_outcomes(json.dumps(_AB_CD) + "\n" + json.dumps({**_AB_CD, **change}))
        assert new == old == (ValueError, f"{path}: bad corpus record on line 2: {message}")

    @given(st.lists(_GOOD_UNIT, max_size=5))
    @example([_AB_CD])
    def test_save_of_load_is_byte_identical(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corpus.jsonl")
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
            self.assert_saves_back(path)

    def test_saved_corpora_save_back_byte_identical(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        for corpus in (
            convert_treebank(parse_conllu(THANK_YOU + FILE_METADATA + HOVER + SELL)),
            synthetic_corpus(200, seed=4),
        ):
            corpus.save(path)
            self.assert_saves_back(path)

    @staticmethod
    def assert_saves_back(path):
        with open(path, "rb") as f:
            before = f.read()
        Corpus.load(path).save(path)
        with open(path, "rb") as f:
            assert f.read() == before

    def test_load_memory_bound(self, tmp_path):
        # 2,000 units, 11,142 words; traced after the load: 1.16 MB with one
        # (start, end) tuple per word, 0.74 MB with one flat tuple per unit
        path = tmp_path / "corpus.jsonl"
        synthetic_corpus(2000, seed=0).save(path)
        tracemalloc.start()
        try:
            corpus = Corpus.load(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 950_000
        for u in corpus.units:
            assert type(u.offsets) is tuple and len(u.offsets) == 2 * len(u.words)
            assert all(type(x) is int for x in u.offsets)
