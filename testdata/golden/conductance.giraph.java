// Generated by the Green-Marl → Pregel compiler from procedure "conductance".
// Target: Apache Giraph (BasicComputation + MasterCompute APIs).

public class ConductanceComputation extends BasicComputation<IntWritable, ConductanceValue, NullWritable, ConductanceMessage> {
    
    @Override
    public void compute(Vertex<IntWritable, ConductanceValue, NullWritable> vertex, Iterable<ConductanceMessage> messages) {
        int _state = ((IntWritable) getAggregatedValue("_state")).get();
        switch (_state) {
            case 0: { // in_nbr_send
                for (Edge<IntWritable, NullWritable> e : vertex.getEdges()) {
                    ConductanceMessage m = new ConductanceMessage();
                    m.f0 = vertex.getId().get();
                    sendMessage(e.getTargetVertexId(), m);
                }
                break;
            }
            case 1: { // in_nbr_collect
                long num = ((LongWritable) getAggregatedValue("num")).get();
                vertex.getValue().in_nbrs = collectSenderIds(messages);
                if ((vertex.getValue().member == num)) {
                    aggregate("_r0_+=", new LongWritable(vertex.getNumEdges()));
                }
                if ((vertex.getValue().member != num)) {
                    aggregate("_r1_+=", new LongWritable(vertex.getNumEdges()));
                }
                if ((vertex.getValue().member == num)) {
                    vertex.getValue()._t4 = 0L;
                }
                if ((vertex.getValue().member != num)) {
                    for (int i = 0; i < vertex.getValue().in_nbrs.length; i++) {
                        ConductanceMessage m = new ConductanceMessage();
                        sendMessage(new IntWritable(vertex.getValue().in_nbrs[i]), m);
                    }
                }
                break;
            }
            case 11: { // state10_recv
                long num = ((LongWritable) getAggregatedValue("num")).get();
                for (ConductanceMessage m : messages) {
                    if (m.type == 1) {
                        if ((vertex.getValue().member == num)) {
                            vertex.getValue()._t4 += 1L;
                        }
                    }
                }
                if ((vertex.getValue().member == num)) {
                    aggregate("_r2_+=", new LongWritable(vertex.getValue()._t4));
                }
                break;
            }
        }
    }
}

public class ConductanceMaster extends DefaultMasterCompute {
    int _state = 0;
    long num;
    long Din;
    long Dout;
    long Cross;
    long _r0;
    long _r1;
    long _r2;
    double m;
    
    @Override
    public void initialize() throws InstantiationException, IllegalAccessException {
        registerPersistentAggregator("_state", IntOverwriteAggregator.class);
        registerPersistentAggregator("num", LongOverwriteAggregator.class);
        registerPersistentAggregator("Din", LongOverwriteAggregator.class);
        registerPersistentAggregator("Dout", LongOverwriteAggregator.class);
        registerPersistentAggregator("Cross", LongOverwriteAggregator.class);
        registerPersistentAggregator("_r0", LongOverwriteAggregator.class);
        registerPersistentAggregator("_r1", LongOverwriteAggregator.class);
        registerPersistentAggregator("_r2", LongOverwriteAggregator.class);
        registerPersistentAggregator("m", DoubleOverwriteAggregator.class);
        registerAggregator("_r0_+=", LongSumAggregator.class);
        registerAggregator("_r1_+=", LongSumAggregator.class);
        registerAggregator("_r2_+=", LongSumAggregator.class);
    }
    
    @Override
    public void compute() {
        while (true) {
            switch (_state) {
                case 0: { // vertex state "in_nbr_send"
                    setAggregatedValue("_state", new IntWritable(0));
                    _state = 1; return;
                }
                case 1: { // vertex state "in_nbr_collect"
                    setAggregatedValue("_state", new IntWritable(1));
                    setAggregatedValue("num", new LongWritable(num));
                    _state = 2; return;
                }
                case 2: {
                    Din = 0L;
                    Dout = 0L;
                    Cross = 0L;
                    _r0 = 0L;
                    _state = 3; break;
                }
                case 3: {
                    _state = 4; break;
                }
                case 4: {
                    _r0 += ((LongWritable) getAggregatedValue("_r0_+=")).get();
                    _state = 5; break;
                }
                case 5: {
                    Din = _r0;
                    _r1 = 0L;
                    _state = 6; break;
                }
                case 6: {
                    _state = 7; break;
                }
                case 7: {
                    _r1 += ((LongWritable) getAggregatedValue("_r1_+=")).get();
                    _state = 8; break;
                }
                case 8: {
                    Dout = _r1;
                    _r2 = 0L;
                    _state = 9; break;
                }
                case 9: {
                    _state = 10; break;
                }
                case 10: {
                    _state = 11; break;
                }
                case 11: { // vertex state "state10_recv"
                    setAggregatedValue("_state", new IntWritable(11));
                    setAggregatedValue("num", new LongWritable(num));
                    _state = 12; return;
                }
                case 12: {
                    _state = 13; break;
                }
                case 13: {
                    _r2 += ((LongWritable) getAggregatedValue("_r2_+=")).get();
                    _state = 14; break;
                }
                case 14: {
                    Cross = _r2;
                    m = ((Din < Dout) ? (1.0 * Din) : (1.0 * Dout));
                    if ((m == 0.0)) {
                        // procedure result: ((Cross == 0L) ? 0.0 : Double.POSITIVE_INFINITY)
                        haltComputation(); return;
                    } else {
                        // procedure result: (Cross / m)
                        haltComputation(); return;
                    }
                    haltComputation(); return;
                }
            }
        }
    }
}

public class ConductanceValue implements Writable {
    public long member;
    public long _t4;
    public int[] in_nbrs;
    public void write(DataOutput out) throws IOException {
        out.writeLong(member);
        out.writeLong(_t4);
    }
    public void readFields(DataInput in) throws IOException {
        member = in.readLong();
        _t4 = in.readLong();
    }
}

public class ConductanceMessage implements Writable {
    public byte type;
    public long f0;
    public void write(DataOutput out) throws IOException {
        out.writeByte(type);
        out.writeLong(f0);
    }
    public void readFields(DataInput in) throws IOException {
        type = in.readByte();
        f0 = in.readLong();
    }
}
