#ifndef DQM_ESTIMATORS_BASELINES_H_
#define DQM_ESTIMATORS_BASELINES_H_

#include "estimators/estimator.h"

namespace dqm::estimators {

/// NOMINAL (Section 2.2.1): counts the records marked dirty by at least one
/// worker. Descriptive — neither forward-looking nor robust to false
/// positives.
double NominalScore(const crowd::ResponseLog& log);

/// VOTING (Section 2.2.2): the current majority consensus — records where
/// strictly more workers said dirty than clean. The paper's strongest
/// descriptive baseline and the quantity the SWITCH estimator corrects.
double VotingScore(const crowd::ResponseLog& log);

}  // namespace dqm::estimators

#endif  // DQM_ESTIMATORS_BASELINES_H_
