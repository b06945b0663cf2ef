import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from blocksched import (ClinicInstance, CostWeights, InstanceFormatError,
                        balance_workload, expand_block, instance_from_dict,
                        instance_to_dict, load_instance, validate_instance,
                        workloads)
from blocksched.instance import MAX_TIME
from blocksched.units import tenths

from conftest import FIXDIR, mk_instance, random_conformant_instance


class TestValidate:
    def test_example1_clean(self, ex1):
        report = validate_instance(ex1)
        assert report.ok and not report.warnings

    def test_nonpositive_stage1_time(self):
        inst = mk_instance([("T1", 0, 0, 1)])
        report = validate_instance(inst)
        assert not report.ok
        assert any("nonpositive stage-1 time" in e for e in report.errors)

    def test_example2_balance_warning(self, ex2):
        report = validate_instance(ex2)
        assert report.ok
        assert report.warnings == ["L_a=180 > L_p=130; run balance"]

    def test_mu_sd_on_q_type_rejected(self):
        inst = mk_instance([("T1", 10, 0, 1, 0, 2)])
        assert not validate_instance(inst).ok

    def test_nonconformant_qplus_warns_not_errors(self):
        inst = mk_instance([("A", 20, 10, 1)])
        report = validate_instance(inst)
        assert report.ok
        assert any("no-idle guarantees void" in w for w in report.warnings)

    @pytest.mark.parametrize("inst, error", [
        (mk_instance([("A", 10, 20, 1, -1)]),
         "types[0] (A): negative standard deviation"),
        (mk_instance([("A", 10, 20, 1, 0, -1)]),
         "types[0] (A): negative standard deviation"),
        (mk_instance([("A", 10, -5, 1)]), "types[0] (A): negative stage-2 time"),
        (mk_instance([("A", 10, 20, 1)], costs=(1, 1, 1, -1, 1)),
         "costs.o_a: negative weight"),
        (ClinicInstance((), CostWeights.of(1, 1, 1), 3000, 1), "types: empty"),
    ], ids=["lambda-sd", "mu-sd", "stage-2-mean", "weight", "no-types"])
    def test_each_error_names_its_field(self, inst, error):
        assert validate_instance(inst).errors == [error]

    def test_times_beyond_the_limit_name_their_field(self, ex1):
        # instances built in code skip the loader: the validator bounds
        # every time at MAX_TIME tenths (10^6 minutes), each field named
        inst = mk_instance([("A", 10 ** 6, 10 ** 6 + 1, 1, 10 ** 7, 10 ** 6)])
        assert validate_instance(inst).errors == [
            "types[0] (A): lambda_sd 10000000 minutes is beyond the "
            "1000000-minute limit",
            "types[0] (A): mu_mean 1000001 minutes is beyond the "
            "1000000-minute limit"]
        late = dataclasses.replace(ex1, regular_time=-MAX_TIME - 1)
        assert validate_instance(late).errors == [
            "regular_time: negative",
            "regular_time: -1000000.1 minutes is beyond the 1000000-minute "
            "limit"]


class TestExpandBlock:
    def test_table3_order_and_length(self, ex1):
        block = expand_block(ex1)
        assert [p.name for p in block] == (
            ["T1"] * 3 + ["T2"] * 2 + ["T3"] + ["T4"] * 3)

    def test_single_type(self):
        block = expand_block(mk_instance([("A", 10, 0, 1)]))
        assert len(block) == 1 and block[0].name == "A"

    def test_table7_counts(self, table7):
        block = expand_block(table7)
        assert len(block) == 16
        counts = {}
        for p in block:
            counts[p.name] = counts.get(p.name, 0) + 1
        assert counts == {"HC": 2, "LC": 4, "MC": 4, "L": 3, "M": 2, "H": 1}

    def test_uids_are_canonical_per_block(self, ex1):
        b0 = expand_block(ex1, 0)
        b1 = expand_block(ex1, 1)
        assert [p.uid for p in b0] == list(range(9))
        assert [p.uid for p in b1] == list(range(9, 18))


class TestWorkloads:
    def test_example1(self, ex1):
        assert workloads(ex1) == (tenths(125), tenths(130))

    def test_example2(self, ex2):
        assert workloads(ex2) == (tenths(180), tenths(130))

    def test_table7_hand_sum(self, table7):
        # hand sum of mean*ratio over the six types
        assert workloads(table7) == (tenths("163.6"), tenths("156.2"))

    def test_linearity_in_ratios(self):
        rng = np.random.default_rng(5)
        inst = random_conformant_instance(rng)
        doubled = mk_instance([(t.name, Fraction(t.lam, 10), Fraction(t.mu, 10),
                                2 * t.ratio) for t in inst.types])
        assert workloads(doubled) == tuple(2 * w for w in workloads(inst))


class TestBalance:
    def test_example2_trace(self, ex2):
        result = balance_workload(ex2)
        assert result.overflow_list == ("T2", "T2", "T1", "T2")
        assert sorted(result.overflow_list) == ["T1", "T2", "T2", "T2"]
        assert (result.final_L_a, result.final_L_p) == (tenths(125), tenths(130))
        assert result.reduced_ratios == {"T1": 3, "T2": 2, "T3": 1, "T4": 3}
        assert not result.unbalanceable

    def test_balanced_instance_short_circuits(self, ex1):
        result = balance_workload(ex1)
        assert result.overflow_list == ()
        assert result.reduced_ratios == {t.name: t.ratio for t in ex1.types}

    def test_unbalanceable_all_qplus(self):
        inst = mk_instance([("A", 30, 10, 2)])  # L_a=60 > L_p=20, no Q to drop
        result = balance_workload(inst)
        assert result.unbalanceable

    def test_each_removal_drops_la_by_lambda_only(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            inst = random_conformant_instance(rng)
            result = balance_workload(inst)
            L_a, L_p = workloads(inst)
            lam = {t.name: t.lam for t in inst.types}
            for name in result.overflow_list:
                L_a -= lam[name]
            if not result.unbalanceable:
                assert L_a == result.final_L_a <= L_p == result.final_L_p

    def test_greedy_replay_and_termination(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            inst = random_conformant_instance(rng)
            result = balance_workload(inst)
            v = sum(t.ratio for t in inst.types if not t.qplus)
            assert len(result.overflow_list) <= v
            # replay the greedy rule independently
            counts = {t.name: t.ratio for t in inst.types if not t.qplus}
            lam = {t.name: t.lam for t in inst.types}
            order = [t.name for t in inst.types if not t.qplus]
            L_a, L_p = workloads(inst)
            removed = []
            while L_a > L_p and any(counts.values()):
                pick = None
                for name in order:
                    if counts[name] == 0:
                        continue
                    if pick is None or counts[name] > counts[pick] or (
                            counts[name] == counts[pick] and lam[name] > lam[pick]):
                        pick = name
                counts[pick] -= 1
                removed.append(pick)
                L_a -= lam[pick]
            assert tuple(removed) == result.overflow_list

    def test_reduced_instance_plus_overflow_matches_original(self, ex2):
        result = balance_workload(ex2)
        assert result.overflow_list
        merged = dict(result.reduced_ratios)
        for name in result.overflow_list:
            merged[name] = merged.get(name, 0) + 1
        assert merged == {t.name: t.ratio for t in ex2.types}


class TestInstanceIO:
    def test_roundtrip(self, ex1, tmp_path):
        path = tmp_path / "ex1.json"
        path.write_text(json.dumps(instance_to_dict(ex1)))
        again = load_instance(path)
        assert again == ex1

    @pytest.mark.parametrize("name", ["ex1", "ex2", "table7"])
    def test_dict_of_plain_floats_loads_as_the_file(self, name):
        # json.load gives floats (alpha 0.2 in table7), which are read by
        # their repr as load_instance's parse_float=Fraction reads them
        path = FIXDIR / f"{name}.json"
        inst = instance_from_dict(json.loads(path.read_text()))
        assert inst == load_instance(str(path))

    def test_missing_ratio_names_field(self, tmp_path):
        data = instance_to_dict(mk_instance(
            [("A", 10, 0, 1), ("B", 10, 0, 1), ("C", 10, 20, 1)]))
        del data["types"][2]["ratio"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError, match=r"types\[2\]\.ratio missing"):
            load_instance(path)

    def test_missing_standard_deviations_default_to_zero(self):
        data = instance_to_dict(mk_instance([("A", 10, 20, 1, 2, 3)]))
        del data["types"][0]["lambda_sd"], data["types"][0]["mu_sd"]
        t = instance_from_dict(data).types[0]
        assert (t.lam, t.lam_sd, t.mu, t.mu_sd) == (tenths(10), 0,
                                                    tenths(20), 0)

    def test_file_that_is_not_json_names_the_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError,
                           match=rf"^{re.escape(str(path))}: not valid JSON"):
            load_instance(path)

    def test_subgrid_time_rejected(self):
        data = {"types": [{"name": "A", "lambda_mean": 10.55, "lambda_sd": 0,
                           "mu_mean": 0, "mu_sd": 0, "ratio": 1}],
                "costs": {"alpha": 1, "beta_a": 1, "beta_p": 1, "o_a": 1, "o_p": 1},
                "regular_time": 300, "blocks": 1}
        with pytest.raises(InstanceFormatError, match="0.1-minute"):
            instance_from_dict(json.loads(json.dumps(data),
                                          parse_float=Fraction))

    def test_booleans_rejected_in_numeric_fields(self):
        sections = ((lambda d: d["types"][0],
                     ("lambda_mean", "lambda_sd", "mu_mean", "mu_sd", "ratio")),
                    (lambda d: d["costs"],
                     ("alpha", "beta_a", "beta_p", "o_a", "o_p")),
                    (lambda d: d, ("regular_time", "blocks")))
        for section, keys in sections:
            for key in keys:
                data = instance_to_dict(mk_instance([("A", 10, 20, 1)]))
                section(data)[key] = True
                with pytest.raises(InstanceFormatError,
                                   match=rf"\.{key}: must be an? (number|integer)"):
                    instance_from_dict(data)

    def test_non_numeric_cost_names_field(self):
        data = instance_to_dict(mk_instance([("A", 10, 20, 1)]))
        data["costs"]["beta_p"] = "x"
        with pytest.raises(InstanceFormatError,
                           match=r"costs\.beta_p: must be a number, not 'x'"):
            instance_from_dict(data)

    def test_non_object_sections_name_their_field(self):
        data = instance_to_dict(mk_instance([("A", 10, 20, 1)]))
        data["costs"] = 5
        with pytest.raises(InstanceFormatError,
                           match=r"^costs: must be an object"):
            instance_from_dict(data)
        data = instance_to_dict(mk_instance([("A", 10, 20, 1)]))
        data["types"][0] = "A"
        with pytest.raises(InstanceFormatError,
                           match=r"^types\[0\]: must be an object"):
            instance_from_dict(data)
        with pytest.raises(InstanceFormatError, match="types missing"):
            instance_from_dict([])
