"""The memoised line parser against the one-pass parser it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exciton_eit import ConfigError, config, parse_config
from oracles import parse_config_reference
from test_cli import config_lines

# lines outside ``config_lines``' grammar: blanks, comments, stray
# separators, a key with no value, tabs and comments around entries
JUNK = st.sampled_from([
    "", "   ", "# note", "  # Omega2 = 1 rad/s", "x", "=", " = 1 rad/s", "Omega2",
    "Omega2 =", "Omega2 = # comment", "\tN = 1 m^-3", "N=2e25 m^-3#x", "Omega2 = 1, 2 Grad/s",
    "spectrum_omega2 = 1, , 2 Grad/s", "t_steps = 1 2", "t_steps = 1.5", "z_steps = -3",
    "delta1 = 1 meV", "delta1 = 1 m", "gamma_aniso = 2", "eps_b = 7.5 dimensionless x",
])
# lines that parse but that ``validate`` rejects, alone or with another
VALIDATION = st.sampled_from([
    "omega2_min = 50 Grad/s", "omega2_max = 10 Grad/s", "t_steps = 4", "N = -1 m^-3",
    "omega_ac = 4000 Trad/s", "levels_n_max = 40", "levels_l_max = 40",
    "gamma_aniso = 3 dimensionless", "spectrum_omega2 = 1e10, 1.0000001e10 rad/s",
    "gamma_ab = 1.7e308 rad/s", "gamma_bc = 1.7e308 rad/s", "t_span = 0 s",
])


def outcome(parse, text):
    """The config's repr, which holds every float's bits, or the error's
    text, location and keys."""
    try:
        return repr(parse(text))
    except ConfigError as exc:
        return str(exc), exc.line, exc.column, exc.keys


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.lists(config_lines() | JUNK | VALIDATION, max_size=8)
       | st.lists(VALIDATION, max_size=4, unique=True), data=st.data())
def test_parser_matches_the_one_pass_reference(lines, data):
    if lines and data.draw(st.integers(0, 3)) == 0:   # a duplicate key, or a repeated fault
        lines.insert(data.draw(st.integers(0, len(lines))),
                     lines[data.draw(st.integers(0, len(lines) - 1))])
    text = "\n".join(lines) + "\n"
    expected = outcome(parse_config_reference, text)
    # the second parse finds every line remembered
    assert outcome(parse_config, text) == expected
    assert outcome(parse_config, text) == expected


def test_a_remembered_fault_takes_the_line_it_stands_on():
    bad = "N = 1 banana"
    for text, line in ((bad, 1), (f"# a\n\n{bad}", 3), (bad, 1)):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert (str(info.value), info.value.line, info.value.column) == (
            f"unknown unit 'banana' for 'N' (line {line}, column 7)", line, 7)


@pytest.mark.parametrize("again", ["Omega2 = 25 Grad/s", "Omega2 = twelve Grad/s"])
def test_a_remembered_key_twice_is_a_duplicate(again):
    # the duplicate is reported before the second line's own fault
    line = "Omega2 = 25 Grad/s"
    assert parse_config(line).Omega2 == 25e9
    with pytest.raises(ConfigError, match=r"^duplicate key 'Omega2' \(line 3, column 1\)$"):
        parse_config(f"{line}\n\n{again}\n")


def test_the_line_memo_is_bounded():
    for i in range(2 * config._LINE_MEMO):
        parse_config(f"Omega1 = {i} rad/s\n")
    memo = config._parse_line.cache_info()
    assert memo.maxsize == config._LINE_MEMO == memo.currsize
