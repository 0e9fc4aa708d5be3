import json
import os
import random
import re
import subprocess
import sys
from itertools import permutations

import pytest

import supercapelli
from supercapelli import cli, weyl
from supercapelli.cli import main, SUITES
from supercapelli.hooks import HookParams, HookPartition, gamma_star_map
from supercapelli.solver import (c_poly_hc, c_poly_interp, c_star_poly,
                                 coset_type, ia_star_basis, theta_one_family)
from supercapelli.superlie import Ambient
from supercapelli.weyl import (capelli_operator, osp_spanning_set,
                               spherical_vector, t_sigma)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hooks_listing(capsys):
    code, out, _ = run(capsys, 'hooks', '--m', '1', '--n', '1', '--size', '3')
    assert code == 0
    assert out.splitlines() == ['3', '2,1', '1,1,1']


def test_hooks_json_deterministic(capsys):
    args = ['hooks', '--m', '2', '--n', '1', '--size', '2', '--upto',
            '--format', 'json']
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data['partitions'] == ['()', '1', '2', '1,1']


def test_sp_star_oracle(capsys):
    code, out, _ = run(capsys, 'sp-star', '--theta', '1/2', '--m', '1',
                       '--n', '1', '--partition', '1', '--format', 'json')
    assert code == 0
    data = json.loads(out)
    assert data['vars'] == ['x1', 'y1']
    assert data['terms'] == [{'exp': [1, 0], 'coef': '1'},
                             {'exp': [0, 1], 'coef': '1'},
                             {'exp': [0, 0], 'coef': '-1/2'}]


def test_gamma_and_frobenius(capsys):
    code, out, _ = run(capsys, 'gamma', '--m', '2', '--n', '1',
                       '--partition', '2,1')
    assert code == 0 and out.strip() == '(4,2 ; 0)'
    code, out, _ = run(capsys, 'frobenius', '--m', '1', '--n', '1',
                       '--partition', '2')
    assert code == 0 and out.strip() == 'x = (1) ; y = (3/2)'


def test_invalid_partition_exits_2(capsys):
    code, _, err = run(capsys, 'gamma', '--m', '1', '--n', '1',
                       '--partition', '2,2')
    assert code == 2
    assert 'error:' in err


@pytest.mark.parametrize('partition', ['0,1', '1,0,1'])
def test_positive_part_after_a_zero_exits_2(capsys, partition):
    code, out, err = run(capsys, 'gamma', '--m', '1', '--n', '1',
                         '--partition', partition)
    assert code == 2 and not out
    assert 'nonincreasing' in err


@pytest.mark.parametrize('cmd', ['gamma', 'sp-star'])
def test_empty_theta_exits_2(capsys, cmd):
    code, out, err = run(capsys, cmd, '--m', '1', '--n', '1',
                         '--partition', '1', '--theta', '')
    assert code == 2 and not out
    assert 'theta must be 1/2 or 1' in err


def test_invalid_sigma_exits_2(capsys):
    code, _, err = run(capsys, 't-sigma', '--m', '1', '--n', '1',
                       '--sigma', '1,3,2')
    assert code == 2
    assert 'error' in err


@pytest.mark.parametrize('argv,flag,value', [
    (('t-sigma', '--sigma', '2,x'), '--sigma', '2,x'),
    (('c-poly', '--partition', '1,,1'), '--partition', '1,,1'),
])
def test_malformed_integer_names_its_flag(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, '--m', '1', '--n', '1')
    assert code == 2 and not out
    assert err.startswith('error: %s must be comma-separated integers' % flag)
    assert repr(value) in err
    assert 'invalid literal' not in err


def test_hc_text(capsys):
    code, out, _ = run(capsys, 'hc', '--m', '1', '--n', '1', '--dmax', '2')
    assert code == 0
    assert out.strip() == \
        'E(1,1)^2 - E(1b,1b)^2 - E(1,1) - E(1b,1b)'


def test_c_poly_methods_agree(capsys):
    base = ['c-poly', '--m', '1', '--n', '1', '--partition', '2',
            '--format', 'json']
    _, hc_out, _ = run(capsys, *base, '--method', 'hc')
    _, in_out, _ = run(capsys, *base, '--method', 'interp')
    assert json.loads(hc_out)['terms'] == json.loads(in_out)['terms']


def test_capelli_op_cache_cold_warm(capsys, tmp_path):
    args = ['capelli-op', '--m', '1', '--n', '1', '--partition', '1,1',
            '--format', 'json', '--cache-dir', str(tmp_path)]
    code1, cold, _ = run(capsys, *args)
    assert code1 == 0
    assert list(tmp_path.iterdir())
    code2, warm, _ = run(capsys, *args)
    assert code2 == 0 and warm == cold
    code3, nocache, _ = run(capsys, *args, '--no-cache')
    assert code3 == 0 and nocache == cold


def test_capelli_op_corrupt_cache_recovers(capsys, tmp_path):
    args = ['capelli-op', '--m', '1', '--n', '1', '--partition', '2',
            '--format', 'json', '--cache-dir', str(tmp_path)]
    _, cold, _ = run(capsys, *args)
    entry = next(tmp_path.glob('*.json'))
    entry.write_text('garbage{')
    with pytest.warns(UserWarning):
        code, again, _ = run(capsys, *args)
    assert code == 0 and again == cold


def test_output_file(capsys, tmp_path):
    target = tmp_path / 'out.json'
    code, out, _ = run(capsys, 'gelfand', '--m', '1', '--n', '1',
                       '--dmax', '1', '--format', 'json',
                       '--output', str(target))
    assert code == 0 and out == ''
    data = json.loads(target.read_text())
    assert data['terms'] == [{'word': [['1', '1']], 'coef': '1'},
                             {'word': [['1b', '1b']], 'coef': '1'}]


def test_unusable_cache_dir_exits_2(capsys, tmp_path):
    blocker = tmp_path / 'file'
    blocker.write_text('')
    code, out, err = run(capsys, 'capelli-op', '--m', '1', '--n', '1',
                         '--partition', '1', '--cache-dir',
                         str(blocker / 'cache'))
    assert code == 2 and out == ''
    assert err.startswith('error: ') and str(blocker) in err
    # --no-cache bypasses the directory, so it is never created
    code, out, _ = run(capsys, 'capelli-op', '--m', '1', '--n', '1',
                       '--partition', '1', '--cache-dir',
                       str(blocker / 'cache'), '--no-cache')
    assert code == 0 and out


def test_unusable_output_path_exits_2(capsys, tmp_path):
    target = tmp_path / 'missing' / 'x'
    code, out, err = run(capsys, 'gelfand', '--m', '1', '--n', '1',
                         '--dmax', '2', '--output', str(target))
    assert code == 2 and out == ''
    assert err.startswith('error: ') and str(target) in err
    assert not target.parent.exists()


def test_python_dash_m_runs_the_cli(capsys):
    argv = ['hooks', '--m', '1', '--n', '1', '--size', '2']
    code, out, _ = run(capsys, *argv)
    src = os.path.dirname(os.path.dirname(supercapelli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get('PYTHONPATH')] if p]))
    proc = subprocess.run([sys.executable, '-m', 'supercapelli'] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, 'verify', '--suite', 'symbol-identity',
                       '--m', '1', '--n', '1', '--dmax', '2')
    assert code == 0
    assert 'overall: pass' in out
    assert 'FAIL' not in out


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, 'verify', '--suite', 'centrality',
                       '--m', '1', '--n', '1', '--dmax', '2',
                       '--format', 'json')
    assert code == 0
    data = json.loads(out)
    assert data['passed'] is True
    assert all(rec['passed'] for rec in data['cases'])


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, 'verify', '--suite', 'nonsense')
    assert code == 2 and 'unknown suite' in err


def _defaults(cell):
    """{(m, n): degree} of a documented defaults cell, such as
    '(1,1): 3, (2,1): 2' or '(1,1) (2,1): 3'."""
    table = {}
    for pairs, degree in re.findall(r'((?:\(\d+,\d+\)[,\s]*)+):\s*(\d+)',
                                    cell.replace('`', '')):
        for m, n in re.findall(r'\((\d+),(\d+)\)', pairs):
            table[int(m), int(n)] = int(degree)
    return table


def test_documented_suite_defaults_match_the_configs():
    # the defaults are written in the cli docstring and in README's
    # verification table as well as in _CONFIGS
    docstring = {line.split()[0]: _defaults(line)
                 for line in cli.__doc__.splitlines()
                 if line.split()[:1] and line.split()[0] in SUITES}
    readme = os.path.join(os.path.dirname(__file__), os.pardir, 'README.md')
    with open(readme, encoding='utf-8') as fh:
        rows = [line.split('|') for line in fh if line.startswith('| `')]
    table = {cells[1].strip(' `'): _defaults(cells[-2]) for cells in rows}
    assert docstring == cli._CONFIGS
    assert table == cli._CONFIGS


def test_suite_registry_complete():
    assert len(SUITES) == 11


def test_verify_empty_suite_fails(capsys):
    # (0,0) has no nonempty hook partition: nothing is checked
    code, out, _ = run(capsys, 'verify', '--suite', 'eigenvalue-coherence',
                       '--m', '0', '--n', '0')
    assert code == 1
    assert '(0 cases' in out and 'overall: FAIL' in out
    code, out, _ = run(capsys, 'verify', '--suite', 'eigenvalue-coherence',
                       '--m', '0', '--n', '0', '--format', 'json')
    assert code == 1
    data = json.loads(out)
    assert data['passed'] is False and data['cases'] == []


def _verify_cases(capsys, *argv):
    code, out, _ = run(capsys, 'verify', *argv, '--format', 'json')
    data = json.loads(out)
    assert data['passed'] is (code == 0)
    return code, data['cases']


def test_verify_all_honours_ranks_outside_the_defaults(capsys):
    code, cases = _verify_cases(capsys, '--suite', 'all', '--m', '0',
                                '--n', '1', '--dmax', '2')
    assert code == 0
    assert {rec['suite'] for rec in cases} == set(SUITES)


def test_eigenvalue_coherence_finds_the_hook_vectors_once_per_size(
        capsys, monkeypatch):
    calls = []
    real = cli.hook_vectors

    def hook_vectors(params, k):
        calls.append((params, k))
        return real(params, k)

    monkeypatch.setattr(cli, 'hook_vectors', hook_vectors)
    code, cases = _verify_cases(capsys, '--suite', 'eigenvalue-coherence',
                                '--m', '1', '--n', '1', '--dmax', '2')
    assert code == 0 and len(cases) == 6
    # sizes 0 to d + 1 of the one configuration, for every partition b
    assert calls == [(HookParams(1, 1), k) for k in range(4)]


def test_eigenvalue_coherence_exits_3_without_a_hook_vector(capsys,
                                                            monkeypatch):
    # no highest weight vector in degree d + 1 = 3: an internal error,
    # not a failed case
    real = weyl._highest_in

    def highest_in(ambient, cands):
        return [] if len(cands[0]) == 3 else real(ambient, cands)

    monkeypatch.setattr(weyl, '_highest_in', highest_in)
    code, out, err = run(capsys, 'verify', '--suite', 'eigenvalue-coherence',
                         '--m', '1', '--n', '1', '--dmax', '2')
    assert code == 3 and out == ''
    assert err.startswith('internal error: highest weight space at ')
    assert err.endswith(' has dimension 0\n')


def test_verify_pair_outside_the_defaults_takes_smallest_degree(capsys):
    # (3,1) is not a default pair: it runs at degree 2, spectra up to 3
    code, cases = _verify_cases(capsys, '--suite', 'eigenvalue-coherence',
                                '--m', '3', '--n', '1')
    assert code == 0
    assert sorted(rec['case'] for rec in cases) == [
        '(3,1) routes agree 1', '(3,1) routes agree 1,1',
        '(3,1) routes agree 2', '(3,1) spectrum of D_1',
        '(3,1) spectrum of D_1,1', '(3,1) spectrum of D_2']


@pytest.mark.parametrize('dmax,count', [('1', 1), ('2', 3)])
def test_verify_dmax_sets_the_degree(capsys, dmax, count):
    code, cases = _verify_cases(capsys, '--suite', 'vanishing', '--m', '1',
                                '--n', '1', '--dmax', dmax)
    assert code == 0 and len(cases) == count


def test_abstract_capelli_labels_the_ambient_it_ran(capsys):
    # odd n: the round trips run at pair ranks (1, 0), ambient gl(1|0)
    code, cases = _verify_cases(capsys, '--suite', 'abstract-capelli',
                                '--m', '1', '--n', '1', '--dmax', '1')
    assert code == 0
    assert sorted(rec['case'] for rec in cases) == [
        'gl(1|0) preimage roundtrip ()', 'gl(1|0) preimage roundtrip 1',
        'gl(1|1) 20 random sigma in S6', 'gl(1|1) all sigma in S4']


def test_abstract_capelli_checks_each_sigma_against_its_own_t_sigma(
        capsys, monkeypatch):
    # each wrong sigma shares its coset type with other sigma, so a check
    # made once per type could not name it
    s6 = random.Random(0).sample(list(permutations(range(1, 7))), 20)[5]
    wrong = {(1, 2, 3, 4), s6}
    real = cli.t_sigma

    def t_sigma(amb, sig):
        out = real(amb, sig)
        return out + cli.WeylElement.one(amb) if sig in wrong else out

    monkeypatch.setattr(cli, 't_sigma', t_sigma)
    code, cases = _verify_cases(capsys, '--suite', 'abstract-capelli',
                                '--m', '1', '--n', '1', '--dmax', '1')
    assert code == 1
    assert {rec['case']: rec['witness'] for rec in cases
            if not rec['passed']} == {
        'gl(1|1) all sigma in S4': 'failing sigma: [(1, 2, 3, 4)]',
        'gl(1|1) 20 random sigma in S6': 'failing sigma: [%r]' % (s6,)}


def test_verify_duality_honours_zero_rank(capsys):
    code, out, _ = run(capsys, 'verify', '--suite', 'duality', '--m', '0',
                       '--n', '1', '--dmax', '2', '--format', 'json')
    assert code == 0
    cases = {rec['case'] for rec in json.loads(out)['cases']}
    # (0|1)-hook partitions are single columns; (1,1) would add '2'
    assert cases == {'duality for 1', 'duality for 1,1',
                     'minus projection of omega d=1',
                     'minus projection of omega d=2'}


@pytest.mark.parametrize('flags', [('--m', '-1', '--n', '1'),
                                   ('--m', '1', '--n', '-1'),
                                   ('--dmax', '0'), ('--dmax', '-2')])
def test_verify_bad_sizes_exit_2(capsys, flags):
    code, out, err = run(capsys, 'verify', '--suite', 'duality', *flags)
    assert code == 2
    assert out == '' and 'error:' in err


@pytest.mark.parametrize('argv', [
    ('--suite', 'vanishing', '--m', '1'),        # ran 0 cases, exit 1
    ('--suite', 'decomposition', '--m', '1'),    # ran gl(2|2) regardless
    ('--suite', 'duality', '--n', '2'),          # took m = 1 silently
])
def test_verify_lone_rank_flag_exits_2(capsys, argv):
    code, out, err = run(capsys, 'verify', *argv)
    assert code == 2
    assert out == ''
    assert err == 'error: --m and --n must be given together\n'


def test_hooks_negative_size_exits_2(capsys):
    code, out, err = run(capsys, 'hooks', '--m', '1', '--n', '1',
                         '--size', '-1')
    assert code == 2
    assert out == '' and 'error:' in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def singular(params, b):
        raise AssertionError('capelli operator system is singular')

    monkeypatch.setattr(cli, 'capelli_operator', singular)
    code, out, err = run(capsys, 'capelli-op', '--m', '1', '--n', '1',
                         '--partition', '1', '--no-cache')
    assert code == 3
    assert out == ''
    assert err == 'internal error: capelli operator system is singular\n'
    assert 'Traceback' not in err


def test_main_builds_one_parser_and_runs_a_rebound_handler(capsys,
                                                           monkeypatch):
    built = []
    real_build = cli.build_parser

    def counting_build():
        built.append(real_build())
        return built[-1]

    monkeypatch.setattr(cli, '_parser', None)
    monkeypatch.setattr(cli, 'build_parser', counting_build)
    argv = ('hooks', '--m', '1', '--n', '1', '--size', '2')
    assert run(capsys, *argv)[:2] == (0, '2\n1,1\n')
    assert run(capsys, *argv)[:2] == (0, '2\n1,1\n')
    assert len(built) == 1 and cli._parser is built[0]
    real_hooks = cli.cmd_hooks
    seen = []

    def cmd_hooks(args):
        seen.append(args.size)
        return real_hooks(args)

    monkeypatch.setattr(cli, 'cmd_hooks', cmd_hooks)
    assert run(capsys, *argv)[:2] == (0, '2\n1,1\n')
    assert seen == [2] and len(built) == 1


# ---------------------------------------------------------------------------
# Pair-level input rules: one theta check, one permutation check.

P_HALF, P_ONE = HookParams(1, 1, 'half'), HookParams(1, 1, 'one')
B_HALF, B_ONE = HookPartition((1,), P_HALF), HookPartition((1,), P_ONE)
HALF_ONLY_CALLS = {
    # entry point -> (call at theta = 1, the name its message gives)
    'capelli_operator': (lambda: capelli_operator(P_ONE, B_ONE),
                         'capelli_operator'),
    'c_poly_hc': (lambda: c_poly_hc(P_ONE, B_ONE), 'c_poly_hc'),
    'c_star_poly': (lambda: c_star_poly(P_ONE, B_ONE), 'c_star_poly'),
    'c_poly_interp': (lambda: c_poly_interp(P_ONE, B_ONE), 'ia_star_basis'),
    'ia_star_basis': (lambda: ia_star_basis(P_ONE, 1), 'ia_star_basis'),
    'gamma_star_map': (lambda: gamma_star_map(B_ONE), 'gamma_star_map'),
    'spherical_vector': (lambda: spherical_vector(
        P_ONE, B_ONE, capelli=capelli_operator(P_HALF, B_HALF)),
        'the spherical vector'),
    'osp_spanning_set': (lambda: osp_spanning_set(P_ONE), 'osp_spanning_set'),
}
HALF_ONLY_COMMANDS = {
    # command line -> the name its message gives
    'capelli-op': 'capelli-op',
    'capelli-preimage': 'capelli-preimage',
    'd-poly': 'd-poly',
    'c-poly --method hc': 'c_poly_hc',
    'c-poly --method interp': 'ia_star_basis',
    'c-poly --method dual': 'c_star_poly',
    'gamma-star': 'gamma_star_map',
}


@pytest.mark.parametrize('entry', list(HALF_ONLY_CALLS)
                         + list(HALF_ONLY_COMMANDS))
def test_theta_half_entry_points_reject_theta_one(capsys, entry):
    if entry in HALF_ONLY_CALLS:
        call, name = HALF_ONLY_CALLS[entry]
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == '%s requires theta = 1/2' % name
    else:
        code, out, err = run(capsys, *entry.split(), '--m', '1', '--n', '1',
                             '--partition', '1', '--theta', '1')
        assert code == 2 and out == ''
        assert err == 'error: %s requires theta = 1/2\n' \
            % HALF_ONLY_COMMANDS[entry]


def test_theta_one_family_rejects_theta_half():
    with pytest.raises(ValueError) as info:
        theta_one_family(P_HALF, B_HALF)
    assert str(info.value) == 'theta_one_family requires theta = 1'


@pytest.mark.parametrize('cmd', ['capelli-op', 'capelli-preimage', 'd-poly'])
def test_rejected_theta_opens_no_cache_dir(capsys, tmp_path, cmd):
    cache_dir = tmp_path / 'c'
    code, out, err = run(capsys, cmd, '--m', '1', '--n', '1', '--partition',
                         '1', '--theta', '1', '--cache-dir', str(cache_dir))
    assert code == 2 and out == '' and err.startswith('error: ')
    assert not cache_dir.exists()


def test_one_permutation_message(capsys):
    want = 'sigma must be a permutation of 1..2d, got 2,1,3'
    for call in (lambda: t_sigma(Ambient(1, 1), (2, 1, 3)),
                 lambda: coset_type((2, 1, 3))):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == want
    code, out, err = run(capsys, 't-sigma', '--m', '1', '--n', '1',
                         '--sigma', '2,1,3')
    assert code == 2 and out == '' and err == 'error: %s\n' % want
