/**
 * @file
 * Golden cells of the default seed (kDefaultSeed), recorded from the
 * library at the commit that added this benchmark. The ROADMAP
 * requires the Table 2 values and the fleet digest to stay
 * bit-identical, so any change to one of these fingerprints is a
 * failed cell. The values are the fingerprints the benchmark prints
 * for its first iteration ("cell <key> <fingerprint>").
 */

#ifndef PERFBENCH_GOLDENS_H
#define PERFBENCH_GOLDENS_H

#include "check.h"

namespace perfbench {

inline const Golden kTable2Golden = {
    {"siren/pa_threshold",
     "threshold=0.22 power_mw=72.611977777777781 full_recall=1 "},
    {"music/pa_threshold",
     "threshold=0.22 power_mw=72.611977777777781 full_recall=1 "},
    {"phrase/pa_threshold",
     "threshold=0.22 power_mw=72.611977777777781 full_recall=1 "},
    {"siren/oracle/audio-office",
     "power_mw=18.19083333333333 energy_mj=2182.8999999999996 triggers=0 recall=1 precision=1 latency_s=0 "},
    {"siren/oracle/audio-coffeeshop",
     "power_mw=18.19083333333333 energy_mj=2182.8999999999996 triggers=0 recall=1 precision=1 latency_s=0 "},
    {"siren/oracle/audio-outdoors",
     "power_mw=18.19083333333333 energy_mj=2182.8999999999996 triggers=0 recall=1 precision=1 latency_s=0 "},
    {"siren/pa/audio-office",
     "power_mw=70.216973333333371 energy_mj=8426.0368000000053 triggers=96 recall=1 precision=1 latency_s=1.0765000007869929 executor=MSP430 "},
    {"siren/pa/audio-coffeeshop",
     "power_mw=73.725933333333316 energy_mj=8847.1119999999974 triggers=110 recall=1 precision=1 latency_s=1.0820000004372758 executor=MSP430 "},
    {"siren/pa/audio-outdoors",
     "power_mw=73.893026666666657 energy_mj=8867.1631999999991 triggers=99 recall=1 precision=1 latency_s=1.0907500003765307 executor=MSP430 "},
    {"siren/sw/audio-office",
     "power_mw=74.942939999999993 energy_mj=8993.1527999999998 triggers=5 recall=1 precision=1 latency_s=1.6525000007870005 executor=LM4F120 "},
    {"siren/sw/audio-coffeeshop",
     "power_mw=76.7809666666667 energy_mj=9213.716000000004 triggers=6 recall=1 precision=1 latency_s=1.6580000004372693 executor=LM4F120 "},
    {"siren/sw/audio-outdoors",
     "power_mw=73.104913333333357 energy_mj=8772.589600000003 triggers=4 recall=1 precision=1 latency_s=1.6667500003765241 executor=LM4F120 "},
    {"music/oracle/audio-office",
     "power_mw=18.19083333333333 energy_mj=2182.8999999999996 triggers=0 recall=1 precision=1 latency_s=0 "},
    {"music/oracle/audio-coffeeshop",
     "power_mw=18.19083333333333 energy_mj=2182.8999999999996 triggers=0 recall=1 precision=1 latency_s=0 "},
    {"music/oracle/audio-outdoors",
     "power_mw=18.19083333333333 energy_mj=2182.8999999999996 triggers=0 recall=1 precision=1 latency_s=0 "},
    {"music/pa/audio-office",
     "power_mw=70.216973333333371 energy_mj=8426.0368000000053 triggers=96 recall=1 precision=1 latency_s=1.1527499998151853 executor=MSP430 "},
    {"music/pa/audio-coffeeshop",
     "power_mw=73.725933333333316 energy_mj=8847.1119999999974 triggers=110 recall=1 precision=1 latency_s=1.1442499999159921 executor=MSP430 "},
    {"music/pa/audio-outdoors",
     "power_mw=73.893026666666657 energy_mj=8867.1631999999991 triggers=99 recall=1 precision=1 latency_s=1.1155000000093622 executor=MSP430 "},
    {"music/sw/audio-office",
     "power_mw=45.852273333333315 energy_mj=5502.2727999999979 triggers=7 recall=1 precision=1 latency_s=2.6247499998151866 executor=MSP430 "},
    {"music/sw/audio-coffeeshop",
     "power_mw=49.862513333333339 energy_mj=5983.5016000000005 triggers=8 recall=1 precision=1 latency_s=2.7442499999159864 executor=MSP430 "},
    {"music/sw/audio-outdoors",
     "power_mw=49.862513333333332 energy_mj=5983.5015999999996 triggers=8 recall=1 precision=1 latency_s=2.8435000000093638 executor=MSP430 "},
    {"phrase/oracle/audio-office",
     "power_mw=9.6999999999999993 energy_mj=1164 triggers=0 recall=1 precision=1 latency_s=0 "},
    {"phrase/oracle/audio-coffeeshop",
     "power_mw=9.6999999999999993 energy_mj=1164 triggers=0 recall=1 precision=1 latency_s=0 "},
    {"phrase/oracle/audio-outdoors",
     "power_mw=9.6999999999999993 energy_mj=1164 triggers=0 recall=1 precision=1 latency_s=0 "},
    {"phrase/pa/audio-office",
     "power_mw=70.216973333333371 energy_mj=8426.0368000000053 triggers=96 recall=1 precision=1 latency_s=0 executor=MSP430 "},
    {"phrase/pa/audio-coffeeshop",
     "power_mw=73.725933333333316 energy_mj=8847.1119999999974 triggers=110 recall=1 precision=1 latency_s=0 executor=MSP430 "},
    {"phrase/pa/audio-outdoors",
     "power_mw=73.893026666666657 energy_mj=8867.1631999999991 triggers=99 recall=1 precision=1 latency_s=0 executor=MSP430 "},
    {"phrase/sw/audio-office",
     "power_mw=44.985880000000002 energy_mj=5398.3056000000006 triggers=7 recall=1 precision=1 latency_s=0 executor=MSP430 "},
    {"phrase/sw/audio-coffeeshop",
     "power_mw=32.484806666666678 energy_mj=3898.1768000000011 triggers=5 recall=1 precision=1 latency_s=0 executor=MSP430 "},
    {"phrase/sw/audio-outdoors",
     "power_mw=32.955159999999999 energy_mj=3954.6192000000001 triggers=3 recall=1 precision=1 latency_s=0 executor=MSP430 "},
};

inline const Golden kFleetGolden = {
    {"fleet",
     "digest=14861031116681295003 samples=13107200 wakes=160293 admitted=16384 rejected=0 ram_bytes=1841910 energy_mj=314577.12839993642 power_mw=19661.070524996027 plans=3 misses=3 "},
};

} // namespace perfbench

#endif // PERFBENCH_GOLDENS_H
